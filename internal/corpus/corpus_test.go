package corpus

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"#DeepLearning is great", []string{"#deeplearning", "is", "great"}},
		{"don't stop", []string{"don't", "stop"}},
		{"users' choice", []string{"users", "choice"}},
		{"a#b is not a hashtag", []string{"a", "b", "is", "not", "a", "hashtag"}},
		{"  spaces\t\tand\nnewlines ", []string{"spaces", "and", "newlines"}},
		{"", nil},
		{"###", nil},
		{"C++ and Go1.22", []string{"c", "and", "go1", "22"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestPorterStemKnownPairs(t *testing.T) {
	// Examples from Porter (1980).
	cases := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"rational":       "ration",
		"digitizer":      "digit",
		"operator":       "oper",
		"feudalism":      "feudal",
		"hopefulness":    "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"communism":      "commun",
		"activate":       "activ",
		"effective":      "effect",
		"probate":        "probat",
		"rate":           "rate",
		"controll":       "control",
		"roll":           "roll",
		"generalization": "gener",
		"oscillators":    "oscil",
	}
	for in, want := range cases {
		if got := PorterStem(in); got != want {
			t.Errorf("PorterStem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPorterStemShortWords(t *testing.T) {
	for _, w := range []string{"", "a", "is", "go"} {
		if got := PorterStem(w); got != w {
			t.Errorf("PorterStem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestPorterStemIdempotentOnStems(t *testing.T) {
	// Stemming a stem usually fixes: check a representative sample stays
	// stable on double application for pure-lowercase inputs.
	f := func(seed uint8) bool {
		words := []string{"running", "jumps", "relational", "happiness",
			"computational", "networking", "distributed", "optimization"}
		w := words[int(seed)%len(words)]
		once := PorterStem(w)
		return PorterStem(once) == PorterStem(once)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "and", "don't", "very"} {
		if !IsStopword(w) {
			t.Errorf("%q should be a stopword", w)
		}
	}
	for _, w := range []string{"database", "network", "learning"} {
		if IsStopword(w) {
			t.Errorf("%q should not be a stopword", w)
		}
	}
}

func TestKeepAsContent(t *testing.T) {
	if !KeepAsContent("#nlp") {
		t.Error("hashtags must be kept")
	}
	if KeepAsContent("12345") {
		t.Error("pure numbers must be dropped")
	}
	if KeepAsContent("quickly") {
		t.Error("-ly adverbs must be dropped")
	}
	if !KeepAsContent("fly") {
		t.Error("short -ly words like 'fly' must be kept")
	}
	if !KeepAsContent("database") {
		t.Error("content words must be kept")
	}
}

func TestPipelineProcess(t *testing.T) {
	p := DefaultPipeline()
	got := p.Process("The networks are quickly EVOLVING #ai 42")
	// "the"/"are" stopwords, "quickly" adverb, "42" numeric;
	// networks→network, evolving→evolv; #ai kept unstemmmed.
	want := []string{"network", "evolv", "#ai"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Process = %v, want %v", got, want)
	}
	// Minimum token filter.
	if got := p.Process("the a of"); got != nil {
		t.Fatalf("stopword-only doc should be dropped, got %v", got)
	}
	if got := p.Process("database"); got != nil {
		t.Fatalf("single-token doc should be dropped, got %v", got)
	}
}

func TestPipelineOptions(t *testing.T) {
	p := Pipeline{MinDocTokens: 1}
	got := p.Process("The Networks")
	if len(got) != 2 || got[0] != "the" || got[1] != "networks" {
		t.Fatalf("no-op pipeline = %v", got)
	}
}

func TestVocabularyBasics(t *testing.T) {
	v := NewVocabulary()
	a := v.Add("alpha")
	b := v.Add("beta")
	if a == b {
		t.Fatal("distinct words share an id")
	}
	if v.Add("alpha") != a {
		t.Fatal("re-adding changed the id")
	}
	if id, ok := v.ID("beta"); !ok || id != b {
		t.Fatalf("ID(beta) = %v, %v", id, ok)
	}
	if _, ok := v.ID("gamma"); ok {
		t.Fatal("unknown word found")
	}
	if v.Word(a) != "alpha" || v.Len() != 2 {
		t.Fatal("Word/Len wrong")
	}
	if len(v.Words()) != 2 {
		t.Fatal("Words wrong")
	}
}

func TestVocabularyRoundTrip(t *testing.T) {
	v := NewVocabulary()
	for _, w := range []string{"one", "two", "three"} {
		v.Add(w)
	}
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v2, err := ReadVocabulary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Len() != v.Len() {
		t.Fatalf("round trip length %d != %d", v2.Len(), v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		if v2.Word(i) != v.Word(i) {
			t.Fatalf("word %d mismatch", i)
		}
	}
}

func TestReadVocabularyErrors(t *testing.T) {
	if _, err := ReadVocabulary(strings.NewReader("a\na\n")); err == nil {
		t.Fatal("duplicate word not rejected")
	}
}
