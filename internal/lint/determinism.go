package lint

import (
	"go/ast"
	"go/types"
)

// DeterminismAnalyzer forbids ambient sources of non-determinism (lint.All
// applies it module-wide). The paper's subnet-inference results (§3)
// are validated by replaying seeded campaigns; PR 1's chaos harness asserts
// bit-identical reruns. Both guarantees die the moment a probe observation
// depends on the wall clock or the shared global random stream, so the code
// must use the simulator's virtual clock and an injected seeded *rand.Rand
// exclusively.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time and global math/rand in measurement code; " +
		"use the virtual clock and injected seeded *rand.Rand",
	Run: runDeterminism,
}

// forbiddenTimeFuncs are the package-level time functions that read or wait
// on the wall clock. time.Duration arithmetic and constants stay legal.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
	"Since": true, "Until": true,
}

// allowedRandFuncs are the math/rand constructors for seeded local streams;
// every other package-level function draws from the shared global source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				// Methods (e.g. (*rand.Rand).Intn, (time.Time).Sub) operate
				// on injected state and are fine.
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if forbiddenTimeFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock; measurement code must use the virtual clock (netsim ticks)",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"global rand.%s draws from the shared unseeded stream; use an injected seeded *rand.Rand",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
