package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// simPathPackages names the packages whose code runs inside (or renders
// the results of) a simulation, identified by package name so the same
// scope applies to the real tree and to test fixtures. Harness packages
// (runner, experiments, litmus, workload, profiling) legitimately read
// wall-clock time and run real concurrency; they are out of scope here
// and covered by panicboundary/statsdiscipline instead.
var simPathPackages = map[string]bool{
	"cache":     true,
	"check":     true,
	"coherence": true,
	"core":      true,
	"cpu":       true,
	"faults":    true,
	"isa":       true,
	"mem":       true,
	"network":   true,
	"ordering":  true,
	"sim":       true,
	"stats":     true,
}

// wallClockFuncs are the time-package functions that read the host
// clock or schedule against it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandFuncs are the math/rand constructors that produce an
// explicitly-seeded generator — the fix, not the violation.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// DeterminismAnalyzer enforces that simulation-path packages stay pure
// functions of (config, workload, seed): no wall-clock reads, no
// process-global math/rand state, no crypto/rand, and no map iteration
// whose body has order-dependent effects.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand, and order-dependent map iteration in simulation packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !simPathPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"crypto/rand"` {
				pass.Reportf(imp.Pos(), "crypto/rand is nondeterministic by construction; derive randomness from the run seed (sim.NewRand)")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkNondetCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkNondetCall flags selector references to wall-clock time and to
// the implicit-global-state math/rand API.
func checkNondetCall(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			if pass.directiveFor(sel, "nondet") != nil {
				return
			}
			pass.Reportf(sel.Pos(), "time.%s reads the host clock inside a simulation package; simulated time is sim.Cycle (suppress with //wbsim:nondet -- reason)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if seededRandFuncs[fn.Name()] {
			return
		}
		if pass.directiveFor(sel, "nondet") != nil {
			return
		}
		pass.Reportf(sel.Pos(), "rand.%s uses the process-global generator; use the per-run seeded source (sim.NewRand) instead", fn.Name())
	}
}

// checkMapRange flags `for ... range m` over a map when the loop body
// has effects that depend on iteration order: writes to state declared
// outside the loop, channel sends, or calls to non-builtin functions.
// Writes through the loop variables themselves (each entry touched
// once) and order-insensitive control flow are allowed.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	offender, what := findOrderDependence(pass, rng)
	if offender == nil {
		return
	}
	if pass.directiveFor(rng, "nondet") != nil {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration with order-dependent effects (%s): iterate a sorted key slice, or justify with //wbsim:nondet -- reason", what)
}

// findOrderDependence returns the first order-dependent node in the
// range body, with a short description, or nil.
func findOrderDependence(pass *Pass, rng *ast.RangeStmt) (node ast.Node, what string) {
	local := func(e ast.Expr) bool {
		root := rootIdent(e)
		if root == nil {
			return false
		}
		obj := pass.Info.ObjectOf(root)
		if obj == nil {
			return true // unresolved (blank?) — don't flag
		}
		return obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if node != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				if !local(lhs) {
					node, what = n, "assignment to "+types.ExprString(lhs)
					return false
				}
			}
		case *ast.IncDecStmt:
			if !local(n.X) {
				node, what = n, "update of "+types.ExprString(n.X)
				return false
			}
		case *ast.SendStmt:
			node, what = n, "channel send"
			return false
		case *ast.CallExpr:
			if allowedPureCall(pass, n) {
				return true
			}
			node, what = n, "call to "+types.ExprString(n.Fun)
			return false
		case *ast.ReturnStmt:
			// Returning a value computed from the loop variables leaks
			// iteration order; bare/constant returns do not.
			for _, res := range n.Results {
				if mentionsLoopVars(pass, rng, res) {
					node, what = n, "return of a loop-dependent value"
					return false
				}
			}
		}
		return true
	})
	return node, what
}

// allowedPureCall reports whether a call inside a map-range body cannot
// carry order-dependent effects: pure builtins and type conversions.
func allowedPureCall(pass *Pass, call *ast.CallExpr) bool {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return true // conversion
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
		switch b.Name() {
		case "len", "cap", "min", "max", "make", "new", "append", "real", "imag", "complex":
			return true
		}
	}
	return false
}

// mentionsLoopVars reports whether expr references the range statement's
// key or value variable.
func mentionsLoopVars(pass *Pass, rng *ast.RangeStmt, expr ast.Expr) bool {
	isLoopVar := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.Info.ObjectOf(id)
		return obj != nil && (containsPos(rng.Key, obj.Pos()) || containsPos(rng.Value, obj.Pos()))
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && isLoopVar(e) {
			found = true
		}
		return !found
	})
	return found
}

func containsPos(e ast.Expr, pos token.Pos) bool {
	return e != nil && e.Pos() <= pos && pos < e.End()
}

// rootIdent unwraps selectors, indexes, derefs, and parens down to the
// base identifier of an lvalue (nil when the base is e.g. a call).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
