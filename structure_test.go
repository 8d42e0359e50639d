package repro

// TestStructure holds the module to its single-path design: each row of
// structureRules names code that has one home and forbids it everywhere
// else. The rows read the syntax tree of every .go file under the module
// root, so a comment never matches, while a renamed import, a dot import
// or a method value does. Each row carries a negative fixture that must
// trip it, so a row that can no longer fail is itself a failure.
//
// To add a rule, add one row and its fixture; run the rules alone with
//
//	go test -run '^TestStructure$' .

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchHarness is the reason every cmd/cpd-bench allowance gives: the
// benchmark harness is frozen, so its calls to the older doors stay until
// ROADMAP item 1 moves it and deletes the allowance.
const benchHarness = "frozen harness, ROADMAP item 1"

// A structureRule forbids code outside the paths allowed to use it.
type structureRule struct {
	name   string
	reason string      // printed with every violation
	scope  []string    // the paths the rule covers; none means the whole module
	tests  bool        // whether _test.go files are covered too
	forbid []pattern   // any match is a violation
	allow  []allowance // paths exempt from the rule
	bad    [2]string   // negative fixture: a path in scope and a file there that must trip the rule
}

type allowance struct{ path, why string }

// A pattern names what node n of file f uses that the rule forbids, or
// returns "".
type pattern func(n ast.Node, f *sourceFile) string

var structureRules = []structureRule{
	{
		name:   "One file-commit routine",
		reason: "commit files through store.WriteFileAtomic (temp file, fsync, 0644, rename, directory fsync); a private temp+rename commits with weaker durability",
		forbid: []pattern{pkgMember("os", "CreateTemp"), pkgMember("os", "Rename")},
		allow:  []allowance{{"internal/store/", "WriteFileAtomic itself"}},
		bad:    [2]string{"internal/stream/x.go", `package stream; import fsys "os"; var commit = fsys.Rename`},
	},
	{
		name:   "One serving loader",
		reason: "serve v2 files through Engine.LoadGeneration's checked mapping; Options.Mmap is an ignored field and no read, setting or -mmap flag may fork the loader",
		forbid: []pattern{selector("Mmap"), key("Mmap"), literal("mmap")},
		allow: []allowance{
			{"cmd/cpd-bench/", benchHarness},
			{"internal/store/mmap_unix.go", "the one mmap syscall, under store.RawFile"},
		},
		bad: [2]string{"cmd/cpd-serve/x.go", `package main; import "flag"; var m = flag.Bool("mmap", false, "")`},
	},
	{
		name:   "One v2 mapping",
		reason: "store.RawFile owns every v2 mapping: map v2 files through store.OpenRawFile",
		scope:  []string{"internal/store/"},
		forbid: []pattern{contains("mapFile")},
		allow: []allowance{
			{"internal/store/raw.go", "store.RawFile"},
			{"internal/store/mmap_*.go", "the per-platform mapping"},
		},
		bad: [2]string{"internal/store/x.go", `package store; var mapIt = mapFile`},
	},
	{
		name:   "One manifest writer",
		reason: "commit generations through shard.Publisher, the one caller of PublishWhole",
		forbid: []pattern{selector("PublishWhole")},
		allow:  []allowance{{"internal/shard/", "shard.Publisher"}},
		bad:    [2]string{"internal/stream/x.go", `package stream; import sh "repro/internal/shard"; var publish = sh.PublishWhole`},
	},
	{
		name:   "One serving binary",
		reason: "serve serve.APIHandler from cmd/cpd-serve only",
		scope:  []string{"cmd/"},
		tests:  true,
		forbid: []pattern{pkgMember("repro/internal/serve", "APIHandler")},
		allow: []allowance{
			{"cmd/cpd-serve/", "the serving binary"},
			{"cmd/cpd-bench/", benchHarness},
		},
		bad: [2]string{"cmd/cpd-router/x_test.go", `package main; import s "repro/internal/serve"; var h = s.APIHandler`},
	},
	{
		name:   "One install path",
		reason: "install snapshots through serve.Engine.SwapNamed or PromoteGroup",
		forbid: []pattern{
			selector("SwapMapped"), selector("PromoteShardGroup"), selector("BuildSnapshot"),
			selector("Promote"), selector("AttachMapped"), selector("AttachFiles"),
			pkgMember("repro/internal/store", "OpenVerified"),
		},
		allow: []allowance{{"cmd/cpd-bench/", benchHarness}},
		bad:   [2]string{"internal/stream/x.go", `package stream; import . "repro/internal/store"; var open = OpenVerified`},
	},
	{
		name:   "One rank path",
		reason: "rank through core.Model.RankFromLogPosterior over the snapshot's log Φ table; a snapshot patch changes membership rows only",
		forbid: []pattern{
			contains("RankIndex"), contains("scoreWordBlock"), contains("PostingsPerWord"),
			contains("patchLogPhiTable"), contains("changedColumns"), contains("postingList"),
		},
		bad: [2]string{"internal/serve/x.go", `package serve; type Options struct{ PostingsPerWord int }`},
	},
	{
		name:   "One group writer",
		reason: "shard.Publisher writes every group file",
		forbid: []pattern{pkgMember("repro/internal/store", "SaveV2Subset")},
		allow: []allowance{
			{"internal/store/", "the encoder"},
			{"internal/shard/publish.go", "shard.Publisher"},
		},
		bad: [2]string{"internal/shard/split.go", `package shard; import st "repro/internal/store"; var save = st.SaveV2Subset`},
	},
	{
		name:   "One raw writer",
		reason: "shard.Join is the one raw writer outside internal/store, and it checks every file it reads first",
		forbid: []pattern{pkgMember("repro/internal/store", "WriteRawFile")},
		allow: []allowance{
			{"internal/store/", "the encoder"},
			{"internal/shard/join.go", "shard.Join"},
		},
		bad: [2]string{"internal/shard/split.go", `package shard; import st "repro/internal/store"; var write = st.WriteRawFile`},
	},
	{
		name:   "One restart path",
		reason: "a restart replays the journal and adopts the newest generation; no checkpoint sidecar and no compaction",
		scope:  []string{"internal/stream/", "cmd/"},
		forbid: []pattern{contains("CPDSTAT"), selector("Checkpoint"), method("Journal", "Compact")},
		bad:    [2]string{"internal/stream/x.go", `package stream; func (j *Journal) Compact() error { return nil }`},
	},
}

func TestStructure(t *testing.T) {
	root := moduleRoot(t)
	var files []*sourceFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The go tool skips these directories too.
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		f, err := parseSource(filepath.ToSlash(rel), src)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range structureRules {
		for _, f := range files {
			uses, allowed := r.check(f)
			for _, u := range uses {
				if allowed != "" {
					t.Logf("%s: allowed by %q (%s)", u, r.name, allowed)
				} else {
					t.Errorf("%s: %s: %s", u, r.name, r.reason)
				}
			}
		}
		fixture, err := parseSource(r.bad[0], []byte(r.bad[1]))
		if err != nil {
			t.Fatalf("%s: negative fixture: %v", r.name, err)
		}
		if uses, allowed := r.check(fixture); len(uses) == 0 || allowed != "" {
			t.Errorf("%s: negative fixture %s does not trip the rule", r.name, r.bad[0])
		}
	}
}

// moduleRoot finds the directory holding go.mod, from the working
// directory up.
func moduleRoot(t *testing.T) string {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the working directory")
		}
		dir = parent
	}
}

// A sourceFile is one parsed file and the import paths its names refer to.
type sourceFile struct {
	path    string // slash-separated, relative to the module root
	fset    *token.FileSet
	syntax  *ast.File
	imports map[string]string   // local package name → import path; "." + path for a dot import
	free    map[*ast.Ident]bool // identifiers the file does not declare, which a dot import may supply
}

func parseSource(rel string, src []byte) (*sourceFile, error) {
	fset := token.NewFileSet()
	syntax, err := parser.ParseFile(fset, rel, src, 0)
	if err != nil {
		return nil, err
	}
	f := &sourceFile{rel, fset, syntax, map[string]string{}, map[*ast.Ident]bool{}}
	for _, imp := range syntax.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			return nil, err
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." {
			name += p
		}
		f.imports[name] = p
	}
	for _, id := range syntax.Unresolved {
		f.free[id] = true
	}
	return f, nil
}

// check lists, as file:line: what, every use in f of code r forbids, and
// the reason f is allowed to use it, or "" when it is not.
func (r structureRule) check(f *sourceFile) (uses []string, allowed string) {
	inScope := func(s string) bool { return matchPath(s, f.path) }
	if !r.tests && strings.HasSuffix(f.path, "_test.go") || len(r.scope) > 0 && !slices.ContainsFunc(r.scope, inScope) {
		return nil, ""
	}
	ast.Inspect(f.syntax, func(n ast.Node) bool {
		for _, p := range r.forbid {
			if what := p(n, f); what != "" {
				uses = append(uses, f.fset.Position(n.Pos()).String()+": "+what)
			}
		}
		return true
	})
	for _, a := range r.allow {
		if matchPath(a.path, f.path) {
			return uses, a.why
		}
	}
	return uses, ""
}

// matchPath reports whether p is the file pattern names, lies under the
// directory pattern names with a trailing slash, or matches the glob.
func matchPath(pattern, p string) bool {
	if strings.HasSuffix(pattern, "/") {
		return strings.HasPrefix(p, pattern)
	}
	ok, _ := path.Match(pattern, p)
	return ok
}

// pkgMember forbids the member name of the package at import path pkg,
// under whatever name the file imports it: a call, a function value or a
// dot-imported bare name.
func pkgMember(pkg, name string) pattern {
	return func(n ast.Node, f *sourceFile) string {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && n.Sel.Name == name && f.imports[x.Name] == pkg {
				return pkg + "." + name
			}
		case *ast.Ident:
			if n.Name == name && f.free[n] && f.imports["."+pkg] == pkg {
				return pkg + "." + name + " (dot import)"
			}
		}
		return ""
	}
}

// selector forbids x.name for any x: a field, a method call or value, or a
// package member under any import name.
func selector(name string) pattern {
	return func(n ast.Node, _ *sourceFile) string {
		if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == name {
			return "." + name
		}
		return ""
	}
}

// key forbids name as a key of a composite literal.
func key(name string) pattern {
	return func(n ast.Node, _ *sourceFile) string {
		if kv, ok := n.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == name {
				return "key " + name
			}
		}
		return ""
	}
}

// literal forbids the string literal s.
func literal(s string) pattern {
	return func(n ast.Node, _ *sourceFile) string {
		if v, ok := stringValue(n); ok && v == s {
			return strconv.Quote(s)
		}
		return ""
	}
}

// contains forbids every identifier and string literal that contains s.
func contains(s string) pattern {
	return func(n ast.Node, _ *sourceFile) string {
		if id, ok := n.(*ast.Ident); ok && strings.Contains(id.Name, s) {
			return id.Name
		}
		if v, ok := stringValue(n); ok && strings.Contains(v, s) {
			return strconv.Quote(v)
		}
		return ""
	}
}

// method forbids declaring the method name on recv or *recv.
func method(recv, name string) pattern {
	return func(n ast.Node, _ *sourceFile) string {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != name {
			return ""
		}
		typ := fn.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if id, ok := typ.(*ast.Ident); ok && id.Name == recv {
			return "method " + recv + "." + name
		}
		return ""
	}
}

func stringValue(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	v, err := strconv.Unquote(lit.Value)
	return v, err == nil
}
