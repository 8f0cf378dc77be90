package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"driftclean/internal/lint"
)

// wantRe extracts the expected-diagnostic annotation from a fixture
// line: a trailing comment of the form `// want `+"`regex`"+“.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// loadFixture type-checks one testdata package.
func loadFixture(t *testing.T, name string) *lint.Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.NewLoader().LoadDir(dir, "driftclean/internal/lint/testdata/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no Go files", name)
	}
	return pkg
}

// wants scans the fixture sources for `// want` annotations.
func wants(t *testing.T, dir string) []expectation {
	t.Helper()
	var out []expectation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
			}
			out = append(out, expectation{file: abs, line: i + 1, re: re})
		}
	}
	return out
}

// checkFixture runs one analyzer over its fixture package and asserts
// the diagnostics match the `// want` annotations exactly — same file,
// same line, message matching the regex — with no extras and no misses.
func checkFixture(t *testing.T, analyzerName, fixture string) {
	t.Helper()
	var analyzer *lint.Analyzer
	for _, a := range lint.All() {
		if a.Name == analyzerName {
			analyzer = a
		}
	}
	if analyzer == nil {
		t.Fatalf("no analyzer named %q", analyzerName)
	}
	pkg := loadFixture(t, fixture)
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{analyzer})
	expected := wants(t, filepath.Join("testdata", "src", fixture))

	matched := make([]bool, len(diags))
	for _, want := range expected {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != want.file || d.Pos.Line != want.line {
				continue
			}
			if !want.re.MatchString(d.Message) {
				t.Errorf("%s:%d: diagnostic %q does not match want /%s/", want.file, want.line, d.Message, want.re)
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("%s:%d: expected diagnostic /%s/, got none", want.file, want.line, want.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, d := range diags {
		if d.Pos.Column <= 0 || d.Pos.Filename == "" {
			t.Errorf("diagnostic without a precise position: %+v", d)
		}
		if d.Analyzer != analyzerName {
			t.Errorf("diagnostic attributed to %q, want %q: %s", d.Analyzer, analyzerName, d)
		}
	}
}

func TestNoRand(t *testing.T)       { checkFixture(t, "norand", "norand") }
func TestFloatEq(t *testing.T)      { checkFixture(t, "floateq", "floateq") }
func TestNoCopyLock(t *testing.T)   { checkFixture(t, "nocopylock", "nocopylock") }
func TestErrcheckLite(t *testing.T) { checkFixture(t, "errchecklite", "errchecklite") }
func TestCtxFirst(t *testing.T)     { checkFixture(t, "ctxfirst", "ctxfirst") }
func TestExportedDoc(t *testing.T)  { checkFixture(t, "exporteddoc", "exporteddoc") }
func TestNoShadowBuiltin(t *testing.T) {
	checkFixture(t, "noshadowbuiltin", "noshadowbuiltin")
}
func TestMapOrder(t *testing.T)  { checkFixture(t, "maporder", "maporder") }
func TestFaultSite(t *testing.T) { checkFixture(t, "faultsite", "faultsite") }
func TestHotAlloc(t *testing.T)  { checkFixture(t, "hotalloc", "hotalloc") }
func TestLockHold(t *testing.T)  { checkFixture(t, "lockhold", "lockhold") }

// TestFaultSiteProgram exercises the whole-program rules of faultsite —
// per-stage coverage and registry freshness — over a three-package
// fixture program: a covered stage, an uncovered stage, and a stale
// registry package.
func TestFaultSiteProgram(t *testing.T) {
	loader := lint.NewLoader()
	var pkgs []*lint.Package
	for _, dir := range []struct{ sub, imp string }{
		{"corpus", "test/faultprog/internal/corpus"},
		{"extract", "test/faultprog/internal/extract"},
		{"fault", "test/faultprog/fault"},
	} {
		abs, err := filepath.Abs(filepath.Join("testdata", "src", "faultprog", dir.sub))
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(abs, dir.imp)
		if err != nil {
			t.Fatalf("loading %s: %v", dir.sub, err)
		}
		pkgs = append(pkgs, pkg)
	}
	var faultsite *lint.Analyzer
	for _, a := range lint.All() {
		if a.Name == "faultsite" {
			faultsite = a
		}
	}
	diags := lint.Run(pkgs, []*lint.Analyzer{faultsite})
	var coverage, stale int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "registers no fault site"):
			coverage++
			if !strings.Contains(d.Message, "internal/extract") {
				t.Errorf("coverage finding names wrong package: %s", d)
			}
		case strings.Contains(d.Message, "registry is stale"):
			stale++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if coverage != 1 || stale != 1 {
		t.Errorf("got %d coverage and %d stale findings, want 1 and 1: %v", coverage, stale, diags)
	}

	// The generator helpers see the same program: names resolve cleanly
	// and render into a deterministic registry file.
	names, err := lint.FaultSiteNames(pkgs)
	if err != nil {
		t.Fatalf("FaultSiteNames: %v", err)
	}
	if len(names) != 1 || names[0] != "corpus.shard" {
		t.Errorf("FaultSiteNames = %v, want [corpus.shard]", names)
	}
	src := string(lint.GenerateSiteRegistry(names))
	if !strings.Contains(src, "Code generated by driftlint -gensites") ||
		!strings.Contains(src, "\"corpus.shard\",") ||
		!strings.Contains(src, "package fault") {
		t.Errorf("generated registry malformed:\n%s", src)
	}
}

// TestFaultSiteNamesRejectsUnresolvable pins the generator's refusal to
// emit a registry while any site is dynamic.
func TestFaultSiteNamesRejectsUnresolvable(t *testing.T) {
	pkg := loadFixture(t, "faultsite")
	if _, err := lint.FaultSiteNames([]*lint.Package{pkg}); err == nil {
		t.Fatal("expected an error for unresolvable fixture sites")
	}
}

// TestCleanPackage runs the full suite over the clean fixture: a file
// full of near-misses that must produce zero findings.
func TestCleanPackage(t *testing.T) {
	pkg := loadFixture(t, "clean")
	diags := lint.Run([]*lint.Package{pkg}, lint.All())
	for _, d := range diags {
		t.Errorf("clean fixture produced a finding: %s", d)
	}
}

// TestMainPackageExempt checks the exporteddoc main-package exemption.
func TestMainPackageExempt(t *testing.T) {
	pkg := loadFixture(t, "exporteddocmain")
	diags := lint.Run([]*lint.Package{pkg}, lint.All())
	for _, d := range diags {
		t.Errorf("main-package fixture produced a finding: %s", d)
	}
}

// TestMalformedIgnore checks that a //lint:ignore directive without a
// reason is itself reported, at the directive's own position.
func TestMalformedIgnore(t *testing.T) {
	pkg := loadFixture(t, "lintdirective")
	diags := lint.Run([]*lint.Package{pkg}, lint.All())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "lintdirective" || !strings.Contains(d.Message, "malformed //lint:ignore") {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if filepath.Base(d.Pos.Filename) != "lintdirective.go" || d.Pos.Line != 5 {
		t.Errorf("diagnostic at %s:%d, want lintdirective.go:5", d.Pos.Filename, d.Pos.Line)
	}
}

// TestByName covers the -only filter resolution.
func TestByName(t *testing.T) {
	all, err := lint.ByName("")
	if err != nil || len(all) != len(lint.All()) {
		t.Fatalf("empty filter: got %d analyzers, err %v", len(all), err)
	}
	two, err := lint.ByName("floateq, norand")
	if err != nil || len(two) != 2 || two[0].Name != "floateq" || two[1].Name != "norand" {
		t.Fatalf("two-name filter: got %v, err %v", two, err)
	}
	if _, err := lint.ByName("nosuch"); err == nil {
		t.Fatal("unknown analyzer name did not error")
	}
}

// TestDiagnosticString pins the canonical rendering format.
func TestDiagnosticString(t *testing.T) {
	pkg := loadFixture(t, "floateq")
	diags := lint.Run([]*lint.Package{pkg}, lint.All())
	if len(diags) == 0 {
		t.Fatal("expected findings in floateq fixture")
	}
	s := diags[0].String()
	want := fmt.Sprintf("%s: %s [%s]", diags[0].Pos, diags[0].Message, diags[0].Analyzer)
	if s != want || !strings.Contains(s, ".go:") || !strings.HasSuffix(s, "]") {
		t.Errorf("String() = %q", s)
	}
}
