// Package lint is tracenet's project-specific static-analysis framework: a
// deliberately small, stdlib-only mirror of golang.org/x/tools/go/analysis.
// The build environment pins the repo to the standard library, so instead of
// the upstream framework the package implements the same three ideas from
// scratch: an Analyzer (a named check with a Run function over one
// type-checked package), a Pass (the per-package invocation context), and a
// Diagnostic (one finding at one position).
//
// The analyzers encode invariants the compiler cannot see but the paper's
// methodology depends on: deterministic measurement (§3 subnet inference is
// only replayable if every probe observation is a pure function of the seed),
// locking discipline around the shared simulated network, wire-level error
// hygiene, and no aliasing of decode buffers. See cmd/tracenetlint for the
// multichecker that applies them to the whole repository.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lowercase, no spaces).
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Match restricts the analyzer to packages whose import path it accepts;
	// nil applies the analyzer everywhere.
	Match func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Package is one loaded, type-checked package (non-test files only).
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass carries one analyzer's invocation over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the whole load: every package of the Run, with the shared call
	// graph and fact-propagation results the interprocedural analyzers use.
	Prog *Program

	report func(Diagnostic)
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Graph returns the program-wide call graph (built lazily, shared by every
// pass of the Run).
func (p *Pass) Graph() *CallGraph { return p.Prog.Graph() }

// Reach returns the memoized fact-propagation result for the named sink
// classifier; key must identify the classifier uniquely within the Run
// (analyzers use their own name).
func (p *Pass) Reach(key string, sink SinkFunc) *ReachSet { return p.Prog.Reach(key, sink) }

// Matches reports whether this pass's analyzer would also analyze the package
// with the given import path — how the interprocedural analyzers decide
// whether a callee is inside their reporting scope (and will be reported
// there) or outside it (and must be reported at the escaping edge).
func (p *Pass) Matches(pkgPath string) bool {
	return p.Analyzer.Match == nil || p.Analyzer.Match(pkgPath)
}

// Program is one Run's load: the packages under analysis plus the lazily
// built interprocedural state shared across analyzers.
type Program struct {
	Pkgs []*Package

	graph   *CallGraph
	reaches map[string]*ReachSet
	memo    map[string]any
}

// NewProgram wraps a set of loaded packages for analysis.
func NewProgram(pkgs []*Package) *Program {
	return &Program{
		Pkgs:    pkgs,
		reaches: make(map[string]*ReachSet),
		memo:    make(map[string]any),
	}
}

// Memo caches a program-wide fact computed by an analyzer (e.g. "every field
// accessed atomically anywhere") so per-package passes share one computation.
// Run is sequential, so no locking is needed.
func (p *Program) Memo(key string, compute func() any) any {
	if v, ok := p.memo[key]; ok {
		return v
	}
	v := compute()
	p.memo[key] = v
	return v
}

// Graph builds (once) and returns the program call graph.
func (p *Program) Graph() *CallGraph {
	if p.graph == nil {
		p.graph = BuildCallGraph(p.Pkgs)
	}
	return p.graph
}

// Reach memoizes CallGraph.Reach per classifier key. Run is sequential, so no
// locking is needed.
func (p *Program) Reach(key string, sink SinkFunc) *ReachSet {
	if r, ok := p.reaches[key]; ok {
		return r
	}
	r := p.Graph().Reach(sink)
	p.reaches[key] = r
	return r
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package it matches and returns the
// findings ordered by file, line, and column. Findings carrying a
// well-formed `//lint:ignore <analyzer> <reason>` directive on their own or
// the preceding line are suppressed; malformed directives (no reason) are
// themselves findings and suppress nothing.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog := NewProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, report: func(d Diagnostic) {
				diags = append(diags, d)
			}}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = applyIgnores(pkgs, diags)
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
	return diags, nil
}

// All returns the full tracenetlint suite with its per-package scoping
// configured. The determinism, clocksource and map-order analyzers apply to
// every package of the module: the simulator, collector, daemon and
// observability plane promise byte-identical same-seed output, and so do the
// artifacts built on them — ground-truth evals, topology maps, experiment
// tables and reports — so a wall-clock read or a leaked map order anywhere
// would break one of those contracts. Lockcheck stays scoped to netsim, the
// one package whose shared state it models.
func All() []*Analyzer {
	lc := *LockCheckAnalyzer
	lc.Match = func(p string) bool { return p == "tracenet/internal/netsim" }
	return []*Analyzer{
		DeterminismAnalyzer, ClockSourceAnalyzer, MapRangeAnalyzer, &lc,
		WireErrAnalyzer, IPAliasAnalyzer,
		AtomicMixAnalyzer, HotHandleAnalyzer,
	}
}
