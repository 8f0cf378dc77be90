// Package lint is driftclean's project-native static-analysis suite.
//
// The paper's pipeline is only trustworthy if every run is deterministic
// and every metric reproducible: perror/rerror/pcorr/rcorr depend on
// exact fixpoints, and tiny scoring nondeterminism compounds across
// bootstrapping iterations exactly the way semantic drift does. The
// analyzers in this package enforce the project invariants that guard
// that reproducibility:
//
//	norand      — no global math/rand calls; randomness flows through an
//	              injected seeded *rand.Rand (experiment reproducibility).
//	floateq     — no ==/!= between float operands outside a small
//	              allowlist; use an epsilon helper (guards kPCA, eigen
//	              and rank code against brittle exact comparisons).
//	nocopylock  — no by-value passing or copying of structs that contain
//	              sync.Mutex / sync.WaitGroup and friends.
//	errchecklite— no silently discarded error returns in non-test code.
//	ctxfirst    — context.Context parameters come first.
//	exporteddoc — exported declarations carry doc comments.
//	noshadowbuiltin — no declarations that shadow predeclared
//	              identifiers (len, cap, min, max, new, ...).
//	maporder    — no map iteration feeding an order-sensitive sink
//	              (returned slices, output, hashes) without a sort.
//	faultsite   — fault-injection sites are compile-time strings,
//	              uniquely named "pkg.op", covering every stage, and the
//	              generated registry (internal/fault/sites_gen.go) is
//	              current.
//	hotalloc    — no heap allocations inside loop bodies of the declared
//	              hot packages (linalg, kpca, rank, feature).
//	lockhold    — no blocking operation on any path between Lock and
//	              Unlock.
//
// The last four are dataflow analyzers: they walk a lightweight
// intra-procedural CFG (cfg.go, dataflow.go) and a conservative static
// call graph (callgraph.go) built over the same Loader results, so the
// invariants PR 3–5 enforce dynamically (fingerprint A/Bs, chaos
// coverage, benchmarks) are also proven at compile time.
//
// Analyzers run over packages loaded and type-checked once by the shared
// Loader. Diagnostics render as "file:line:col: message [analyzer]" and
// can be suppressed with
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// placed on the offending line or the line immediately above it. The
// reason is mandatory: an unexplained suppression is itself a finding,
// and so is a stale suppression that no longer suppresses anything when
// the full suite runs (see Options.ReportStale).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Exactly one of Run (per
// package) and RunProgram (once, over every loaded package — for
// whole-program invariants like fault-site uniqueness) is set.
type Analyzer struct {
	// Name is the short identifier used in diagnostics, -only filters and
	// //lint:ignore comments.
	Name string
	// Doc is a one-line description of the invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunProgram inspects the whole loaded program at once.
	RunProgram func(*ProgramPass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files (comments included).
	Files []*ast.File
	// Pkg and Info are the go/types results for the package.
	Pkg  *types.Package
	Info *types.Info

	diags *[]Diagnostic
	ign   *ignoreIndex
}

// Reportf records a diagnostic at pos unless a matching //lint:ignore
// comment suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	report(p.diags, p.ign, p.Analyzer.Name, p.Fset.Position(pos), format, args...)
}

// ProgramPass carries every loaded package through one whole-program
// analyzer. CallGraph builds the conservative static call graph on
// first use and memoizes it across analyzers.
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	cg    **callGraph
	diags *[]Diagnostic
	ign   *ignoreIndex
}

// Reportf records a diagnostic at pos unless a matching //lint:ignore
// comment suppresses it.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	report(p.diags, p.ign, p.Analyzer.Name, p.Fset.Position(pos), format, args...)
}

// CallGraph returns the program's static call graph, building it once.
func (p *ProgramPass) CallGraph() *callGraph {
	if *p.cg == nil {
		*p.cg = buildCallGraph(p.Pkgs)
	}
	return *p.cg
}

func report(diags *[]Diagnostic, ign *ignoreIndex, analyzer string, position token.Position, format string, args ...any) {
	if ign.suppressed(analyzer, position) {
		return
	}
	*diags = append(*diags, Diagnostic{
		Analyzer: analyzer,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`
}

// String renders the canonical "file:line:col: message [analyzer]" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// All returns every analyzer in the suite, sorted by name.
func All() []*Analyzer {
	as := []*Analyzer{
		NoRand,
		FloatEq,
		NoCopyLock,
		ErrcheckLite,
		CtxFirst,
		ExportedDoc,
		NoShadowBuiltin,
		MapOrder,
		FaultSite,
		HotAlloc,
		LockHold,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// ByName resolves a comma-separated analyzer filter ("a,b") against the
// suite, erroring on unknown names. An empty filter selects everything.
func ByName(filter string) ([]*Analyzer, error) {
	all := All()
	if strings.TrimSpace(filter) == "" {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", name, strings.Join(Names(), ","))
		}
		out = append(out, a)
	}
	return out, nil
}

// Names lists the analyzer names in the suite.
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// Options tunes a suite run.
type Options struct {
	// ReportStale reports //lint:ignore directives that suppressed
	// nothing during the run as findings. Only set it when every
	// analyzer runs (no -only filter): under a filter, a directive for
	// an unselected analyzer is silent by construction, not stale.
	ReportStale bool
}

// Result is the outcome of a suite run.
type Result struct {
	// Diags are the findings, sorted by position.
	Diags []Diagnostic
	// Ignores counts every well-formed //lint:ignore directive seen in
	// the analyzed sources — the quantity the cmd/driftlint -maxignores
	// ratchet bounds.
	Ignores int
}

// Run applies the analyzers to every loaded package and returns the
// findings sorted by position. Suppressed diagnostics are dropped;
// malformed //lint:ignore comments are themselves reported.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunSuite(pkgs, analyzers, Options{}).Diags
}

// RunSuite is Run with options and suppression accounting.
func RunSuite(pkgs []*Package, analyzers []*Analyzer, opts Options) Result {
	var diags []Diagnostic
	var fset *token.FileSet
	var allFiles []*ast.File
	for _, pkg := range pkgs {
		fset = pkg.Fset
		allFiles = append(allFiles, pkg.Files...)
	}
	ign := newIgnoreIndex(fset, allFiles)
	diags = append(diags, ign.malformed...)

	var program []*Analyzer
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
				ign:      ign,
			}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunProgram != nil {
			program = append(program, a)
		}
	}
	if len(program) > 0 && len(pkgs) > 0 {
		var cg *callGraph
		for _, a := range program {
			pass := &ProgramPass{
				Analyzer: a,
				Fset:     pkgs[0].Fset,
				Pkgs:     pkgs,
				cg:       &cg,
				diags:    &diags,
				ign:      ign,
			}
			a.RunProgram(pass)
		}
	}
	if opts.ReportStale {
		for _, d := range ign.directives {
			if d.used == 0 {
				diags = append(diags, Diagnostic{
					Analyzer: "lintdirective",
					Pos:      d.pos,
					Message: fmt.Sprintf("stale //lint:ignore %s: no such finding on this line anymore; delete the suppression",
						strings.Join(d.names, ",")),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return Result{Diags: diags, Ignores: len(ign.directives)}
}

// directive is one well-formed //lint:ignore comment and its usage
// count across a run.
type directive struct {
	pos   token.Position
	names []string
	used  int
}

// ignoreIndex maps (file, line) to the directives suppressing analyzers
// there. A //lint:ignore comment covers its own line and the line
// immediately below it, matching the common trailing-comment and
// line-above styles.
type ignoreIndex struct {
	byLine     map[string]map[int][]*directive
	directives []*directive
	malformed  []Diagnostic
}

func newIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{byLine: map[string]map[int][]*directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					idx.malformed = append(idx.malformed, Diagnostic{
						Analyzer: "lintdirective",
						Pos:      pos,
						Message:  "malformed //lint:ignore comment: need \"//lint:ignore <analyzer>[,<analyzer>] <reason>\"",
					})
					continue
				}
				d := &directive{pos: pos, names: strings.Split(fields[0], ",")}
				idx.directives = append(idx.directives, d)
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*directive{}
					idx.byLine[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					lines[line] = append(lines[line], d)
				}
			}
		}
	}
	return idx
}

func (idx *ignoreIndex) suppressed(analyzer string, pos token.Position) bool {
	for _, d := range idx.byLine[pos.Filename][pos.Line] {
		for _, name := range d.names {
			if name == analyzer {
				d.used++
				return true
			}
		}
	}
	return false
}
