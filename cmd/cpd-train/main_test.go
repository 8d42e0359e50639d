package main

import "testing"

func TestCheckInit(t *testing.T) {
	for _, tc := range []struct {
		init, resume string
		ok           bool
	}{
		{"random", "", true},
		{"plp", "", true},
		{"random", "m.v2.snap", true}, // the default, with or without -resume
		{"plp", "m.v2.snap", false},   // the warm start would be dropped
		{"bogus", "", false},
		{"bogus", "m.v2.snap", false},
		{"", "", false},
	} {
		if err := checkInit(tc.init, tc.resume); (err == nil) != tc.ok {
			t.Errorf("checkInit(%q, %q) = %v, want ok=%v", tc.init, tc.resume, err, tc.ok)
		}
	}
}
