// Package detcheck enforces the engine's determinism contract in the
// determinism-critical packages (engine, adversary, algos, dyngraph,
// core, problems): a round's output must be a function of the adversary
// schedule and the PRF draws alone, bit-identical for every worker count
// and every process execution. Three things break that silently and are
// flagged here:
//
//   - ranging over a map where the body's effects depend on iteration
//     order. Order-insensitive bodies are allowed: per-key map writes and
//     deletes, commutative integer accumulation, and the collect-then-sort
//     idiom (appending keys to a slice that is subsequently passed to
//     slices.Sort/sort.* or to a canonicalizing constructor like
//     graph.FromEdges in the same function);
//   - math/rand (any import): all randomness must come from internal/prf
//     streams keyed by (seed, node, round, purpose);
//   - wall-clock and scheduling leaks: time.Now/Since and select with a
//     default clause, whose outcome depends on goroutine timing.
//
// Test files are exempt (they may time things and use helper maps); the
// experiment timers live in internal/experiments, which is not a
// determinism-critical package.
package detcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dynlocal/internal/analysis/framework"
)

// Critical lists the import-path prefixes of determinism-critical
// packages. A package is checked when its path starts with any entry.
// "fix/det" covers the analysistest fixtures.
var Critical = []string{
	"dynlocal/internal/engine",
	"dynlocal/internal/adversary",
	"dynlocal/internal/algos",
	"dynlocal/internal/dyngraph",
	"dynlocal/internal/core",
	"dynlocal/internal/problems",
	"dynlocal/internal/graph",
	"fix/det",
}

// Exempt lists path prefixes excluded even when matched by Critical
// (internal/prf is the sanctioned randomness source).
var Exempt = []string{"dynlocal/internal/prf"}

// Analyzer is the detcheck framework.Analyzer.
var Analyzer = &framework.Analyzer{
	Name:     "detcheck",
	Doc:      "flags map-iteration-order, math/rand, wall-clock and select-default nondeterminism in determinism-critical packages",
	Contract: "engine determinism: outputs depend only on the adversary schedule and PRF draws",
	Run:      run,
}

func critical(path string) bool {
	for _, p := range Exempt {
		if strings.HasPrefix(path, p) {
			return false
		}
	}
	for _, p := range Critical {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) error {
	if !critical(strings.TrimSuffix(pass.PkgPath, "_test")) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.TestFile(file.Pos()) {
			continue
		}
		checkImports(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, st, enclosingFunc(file, st))
			case *ast.SelectStmt:
				checkSelectDefault(pass, st)
			case *ast.CallExpr:
				checkClock(pass, st)
			}
			return true
		})
	}
	return nil
}

func checkImports(pass *framework.Pass, file *ast.File) {
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp.Pos(), "math/rand in a determinism-critical package: draw from internal/prf streams keyed by (seed, node, round, purpose) instead")
		}
	}
}

func checkClock(pass *framework.Pass, call *ast.CallExpr) {
	if framework.PkgFunc(pass.TypesInfo, call, "time", "Now") ||
		framework.PkgFunc(pass.TypesInfo, call, "time", "Since") {
		pass.Reportf(call.Pos(), "wall-clock read in a determinism-critical package: round results must not depend on real time")
	}
}

func checkSelectDefault(pass *framework.Pass, sel *ast.SelectStmt) {
	for _, cl := range sel.Body.List {
		if c, ok := cl.(*ast.CommClause); ok && c.Comm == nil {
			pass.Reportf(sel.Pos(), "select with default in a determinism-critical package: the taken branch depends on goroutine scheduling")
			return
		}
	}
}

// enclosingFunc returns the innermost function body containing n, used to
// scope the was-it-sorted-later search.
func enclosingFunc(file *ast.File, n ast.Node) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(file, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if m.Pos() > n.Pos() || m.End() < n.End() {
			return m.Pos() <= n.Pos() && n.End() <= m.End()
		}
		switch f := m.(type) {
		case *ast.FuncDecl:
			if f.Body != nil && f.Body.Pos() <= n.Pos() && n.End() <= f.Body.End() {
				body = f.Body
			}
		case *ast.FuncLit:
			if f.Body.Pos() <= n.Pos() && n.End() <= f.Body.End() {
				body = f.Body
			}
		}
		return true
	})
	return body
}

// checkMapRange classifies the body of a range-over-map loop. The loop is
// reported unless every statement is order-insensitive.
func checkMapRange(pass *framework.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	c := &rangeChecker{pass: pass, rng: rng, fnBody: fnBody}
	c.loopVars(rng.Key)
	c.loopVars(rng.Value)
	for _, st := range rng.Body.List {
		if bad, why := c.unsafeStmt(st); bad {
			pass.Reportf(rng.Pos(), "map iteration order reaches %s; iterate a sorted key slice, or make the body order-insensitive", why)
			return
		}
	}
	// Appends recorded provisionally are fine only if the destination is
	// sorted (or canonicalized) later in the same function.
	for obj, pos := range c.appends {
		if !c.sortedLater(obj) {
			pass.Reportf(pos, "slice %s is built from map iteration order and never sorted; call slices.Sort (or build it from a sorted source)", obj.Name())
		}
	}
}

type rangeChecker struct {
	pass    *framework.Pass
	rng     *ast.RangeStmt
	fnBody  *ast.BlockStmt
	locals  map[types.Object]bool      // loop key/value vars and body-local vars
	appends map[types.Object]token.Pos // slices appended to from the loop
}

func (c *rangeChecker) loopVars(e ast.Expr) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if c.locals == nil {
		c.locals = make(map[types.Object]bool)
	}
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		c.locals[obj] = true
	}
}

// unsafeStmt reports whether st makes the loop order-sensitive, with a
// short reason.
func (c *rangeChecker) unsafeStmt(st ast.Stmt) (bool, string) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		return c.unsafeAssign(s)
	case *ast.IncDecStmt:
		if c.commutativeTarget(s.X) {
			return false, ""
		}
		return true, "a non-commutative update"
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			return true, "an order-sensitive expression"
		}
		if framework.IsBuiltinCall(c.pass.TypesInfo, call, "delete") {
			return false, "" // per-key delete
		}
		return true, "a call to " + callLabel(c.pass.TypesInfo, call)
	case *ast.IfStmt:
		if s.Init != nil {
			if bad, why := c.unsafeStmt(s.Init); bad {
				return bad, why
			}
		}
		for _, sub := range s.Body.List {
			if bad, why := c.unsafeStmt(sub); bad {
				return bad, why
			}
		}
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				for _, sub := range e.List {
					if bad, why := c.unsafeStmt(sub); bad {
						return bad, why
					}
				}
			case *ast.IfStmt:
				return c.unsafeStmt(e)
			}
		}
		return false, ""
	case *ast.BlockStmt:
		for _, sub := range s.List {
			if bad, why := c.unsafeStmt(sub); bad {
				return bad, why
			}
		}
		return false, ""
	case *ast.RangeStmt:
		// Nested range over a slice with a safe body is fine; a nested
		// map range is checked on its own.
		for _, sub := range s.Body.List {
			if bad, why := c.unsafeStmt(sub); bad {
				return bad, why
			}
		}
		return false, ""
	case *ast.ForStmt:
		for _, sub := range s.Body.List {
			if bad, why := c.unsafeStmt(sub); bad {
				return bad, why
			}
		}
		return false, ""
	case *ast.BranchStmt:
		return false, "" // break/continue
	case *ast.DeclStmt:
		return false, "" // local declarations
	case *ast.ReturnStmt:
		return true, "an early return whose value depends on which key comes first"
	default:
		return true, "an order-sensitive statement"
	}
}

func (c *rangeChecker) unsafeAssign(s *ast.AssignStmt) (bool, string) {
	// Op-assigns (+=, |=, ...) on commutative targets are safe.
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		if len(s.Lhs) == 1 && c.commutativeTarget(s.Lhs[0]) {
			switch s.Tok {
			case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
				return false, ""
			}
		}
		return true, "a non-commutative compound assignment"
	}
	for i, lhs := range s.Lhs {
		lhs = ast.Unparen(lhs)
		var rhs ast.Expr
		if i < len(s.Rhs) {
			rhs = s.Rhs[i]
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			if s.Tok == token.DEFINE {
				c.loopVars(l)
				continue
			}
			obj := c.pass.TypesInfo.Uses[l]
			if c.locals[obj] {
				continue // rewriting a loop-local
			}
			// x = append(x, k): provisional, must be sorted later.
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok &&
				framework.IsBuiltinCall(c.pass.TypesInfo, call, "append") {
				if base, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && c.pass.TypesInfo.Uses[base] == obj && obj != nil {
					if c.appends == nil {
						c.appends = make(map[types.Object]token.Pos)
					}
					if _, seen := c.appends[obj]; !seen {
						c.appends[obj] = s.Pos()
					}
					continue
				}
			}
			return true, "an assignment to " + l.Name + " outside the loop"
		case *ast.IndexExpr:
			// Per-key writes into maps, or into slices indexed by a
			// loop-derived key, are order-insensitive.
			if c.perKeyIndex(l) {
				continue
			}
			return true, "an indexed write not keyed by the iteration variable"
		default:
			return true, "an order-sensitive store"
		}
	}
	return false, ""
}

// perKeyIndex reports whether ix writes one element per iterated key:
// a map index, or a slice index derived from the loop variables.
func (c *rangeChecker) perKeyIndex(ix *ast.IndexExpr) bool {
	if tv, ok := c.pass.TypesInfo.Types[ix.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return true
		}
	}
	usesLoopVar := false
	ast.Inspect(ix.Index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.locals[c.pass.TypesInfo.Uses[id]] {
			usesLoopVar = true
		}
		return true
	})
	return usesLoopVar
}

// commutativeTarget reports whether the lvalue is an integer (or
// integer-field) accumulator, whose += / ++ folds commute.
func (c *rangeChecker) commutativeTarget(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// sortedLater reports whether obj is passed to a sorting or canonicalizing
// call anywhere in the enclosing function after being filled from the map.
func (c *rangeChecker) sortedLater(obj types.Object) bool {
	if c.fnBody == nil {
		return false
	}
	sorted := false
	ast.Inspect(c.fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted {
			return !sorted
		}
		if !sortingCall(c.pass.TypesInfo, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == obj {
					sorted = true
				}
				return !sorted
			})
		}
		return !sorted
	})
	return sorted
}

// sortingCall recognizes order-establishing (slices.Sort*, sort.*,
// graph.SortEdgeKeys) and order-canonicalizing (graph.FromEdges, which
// sorts internally) calls.
func sortingCall(info *types.Info, call *ast.CallExpr) bool {
	obj := framework.CalleeObj(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Name() {
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	case "sort":
		return true
	case "graph":
		return fn.Name() == "FromEdges" || fn.Name() == "SortEdgeKeys"
	}
	return false
}

func callLabel(info *types.Info, call *ast.CallExpr) string {
	if name := framework.CalleeName(info, call); name != "" {
		return name
	}
	return "a function"
}
