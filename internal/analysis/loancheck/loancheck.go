// Package loancheck enforces the buffer-ownership contract of the
// ARCHITECTURE.md "Buffer ownership" rules at compile time: values marked
// //dynlint:loan (pooled RoundInfo rounds and their slices, DynAdj
// graphs, Window delta slices, EdgeKeys views, ...) are only on loan from
// an engine-owned pool and may not be stored anywhere that outlives the
// observer callback — a struct field, a package variable, or a variable
// captured from an enclosing scope — unless laundered through
// Retain/Clone/slices.Clone first. It also flags element writes through
// //dynlint:view read-only aliases.
//
// The analysis is an intraprocedural taint pass per function: loan
// sources are loan-annotated types, fields, function results and
// parameters; taint propagates through local assignments, slicing,
// composite literals and loan-preserving appends, and is severed by the
// sanctioned copy idioms (Retain, Clone, slices.Clone, copy, spread
// append) and by extracting non-reference-like elements (an EdgeKey
// copied out of a loaned slice is just a value).
package loancheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"dynlocal/internal/analysis/framework"
)

// Analyzer is the loancheck framework.Analyzer.
var Analyzer = &framework.Analyzer{
	Name:     "loancheck",
	Doc:      "flags pooled //dynlint:loan values escaping their round without Retain/Clone, and writes through //dynlint:view aliases",
	Contract: "ARCHITECTURE.md buffer ownership: pooled round buffers are on loan — Retain/Clone to keep, never write through views",
	Run:      run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// checker carries the per-function taint state. Taint is computed
// flow-insensitively to a fixpoint: a local that is ever assigned a loan
// (or view) expression is treated as loaned (viewed) everywhere.
type checker struct {
	pass  *framework.Pass
	fn    *ast.FuncDecl
	loan  map[types.Object]bool // locals aliasing pooled loan storage
	view  map[types.Object]bool // locals aliasing read-only views
	dirty bool
}

func checkFunc(pass *framework.Pass, fn *ast.FuncDecl) {
	c := &checker{
		pass: pass,
		fn:   fn,
		loan: make(map[types.Object]bool),
		view: make(map[types.Object]bool),
	}
	// Parameters annotated on the function itself are loans/views inside
	// the body.
	if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
		if a := pass.Annotations.Of(obj); a != nil {
			for _, field := range fn.Type.Params.List {
				for _, name := range field.Names {
					if a.ParamIs(name.Name, framework.KindLoan) {
						c.loan[pass.TypesInfo.Defs[name]] = true
					}
					if a.ParamIs(name.Name, framework.KindView) {
						c.view[pass.TypesInfo.Defs[name]] = true
					}
				}
			}
		}
	}
	// Propagate taint through local assignments to a fixpoint.
	for {
		c.dirty = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				c.propagate(st)
			case *ast.ValueSpec:
				for i, name := range st.Names {
					if len(st.Values) == len(st.Names) && c.taints(st.Values[i], framework.KindLoan) {
						c.mark(c.pass.TypesInfo.Defs[name], c.loan)
					}
					if len(st.Values) == len(st.Names) && c.taints(st.Values[i], framework.KindView) {
						c.mark(c.pass.TypesInfo.Defs[name], c.view)
					}
				}
			}
			return true
		})
		if !c.dirty {
			break
		}
	}
	c.report()
}

func (c *checker) mark(obj types.Object, set map[types.Object]bool) {
	if obj == nil || set[obj] {
		return
	}
	set[obj] = true
	c.dirty = true
}

// propagate marks LHS locals of an assignment whose RHS carries taint.
func (c *checker) propagate(st *ast.AssignStmt) {
	if len(st.Lhs) == len(st.Rhs) {
		for i, lhs := range st.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := c.lhsObj(id)
			if c.taints(st.Rhs[i], framework.KindLoan) {
				c.mark(obj, c.loan)
			}
			if c.taints(st.Rhs[i], framework.KindView) {
				c.mark(obj, c.view)
			}
		}
		return
	}
	// Tuple assignment from a single call: taint every LHS if the callee
	// is annotated.
	if len(st.Rhs) == 1 {
		call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		obj := framework.CalleeObj(c.pass.TypesInfo, call)
		for _, lhs := range st.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			lo := c.lhsObj(id)
			if c.pass.Annotations.Is(obj, framework.KindLoan) {
				c.mark(lo, c.loan)
			}
			if c.pass.Annotations.Is(obj, framework.KindView) {
				c.mark(lo, c.view)
			}
		}
	}
}

func (c *checker) lhsObj(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// taints reports whether evaluating e yields a value carrying the given
// taint kind (KindLoan or KindView).
func (c *checker) taints(e ast.Expr, kind string) bool {
	e = ast.Unparen(e)
	info := c.pass.TypesInfo
	ann := c.pass.Annotations

	// Calls are classified first: the sanctioned launderers (Retain,
	// Clone) return owned values even when their result type is itself
	// loan-annotated — Retain() yields an owned *RoundInfo.
	if call, ok := e.(*ast.CallExpr); ok {
		return c.callTaints(call, kind)
	}

	// A value of a loan-annotated named type is a loan wherever it
	// appears.
	if tv, ok := info.Types[e]; ok && ann.TypeIs(tv.Type, kind) {
		return true
	}

	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if kind == framework.KindLoan && c.loan[obj] {
			return true
		}
		if kind == framework.KindView && c.view[obj] {
			return true
		}
		return false
	case *ast.SelectorExpr:
		// Field annotated directly, or any selection through a tainted
		// base whose result still aliases it.
		if obj := selectedObj(info, x); obj != nil && ann.Is(obj, kind) {
			return true
		}
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal &&
			framework.RefLike(sel.Type()) && c.taints(x.X, kind) {
			return true
		}
		return false
	case *ast.SliceExpr:
		return c.taints(x.X, kind)
	case *ast.IndexExpr:
		// Extracting an element: only reference-like elements keep the
		// alias alive.
		if tv, ok := info.Types[e]; ok && !framework.RefLike(tv.Type) {
			return false
		}
		return c.taints(x.X, kind)
	case *ast.StarExpr:
		return c.taints(x.X, kind)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return c.taints(x.X, kind)
		}
		return false
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if c.taints(v, kind) {
				return true
			}
		}
		return false
	case *ast.TypeAssertExpr:
		return c.taints(x.X, kind)
	}
	return false
}

// callTaints classifies a call result: annotated callees produce taint,
// the sanctioned copy idioms sever it, and append/conversions preserve it
// structurally.
func (c *checker) callTaints(call *ast.CallExpr, kind string) bool {
	info := c.pass.TypesInfo

	// Sanctioned launderers: deep or element copies that own their
	// storage.
	switch framework.CalleeName(info, call) {
	case "Retain", "Clone":
		return false
	}
	if framework.PkgFunc(info, call, "slices", "Clone") ||
		framework.IsBuiltinCall(info, call, "copy") {
		return false
	}

	if framework.IsBuiltinCall(info, call, "append") {
		// append(loan, ...) still aliases the loan's backing array;
		// append(x, loan) stores a reference-like loan element; spread
		// append(x, loan...) copies plain elements and is clean.
		if c.taints(call.Args[0], kind) {
			return true
		}
		for _, arg := range call.Args[1:] {
			if c.taints(arg, kind) {
				if call.Ellipsis != token.NoPos {
					tv := info.Types[arg]
					if tv.Type != nil {
						if sl, ok := tv.Type.Underlying().(*types.Slice); ok && !framework.RefLike(sl.Elem()) {
							continue
						}
					}
				}
				return true
			}
		}
		return false
	}

	// Conversions preserve aliasing: T(loan) is still the loan.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return c.taints(call.Args[0], kind)
	}

	obj := framework.CalleeObj(info, call)
	if c.pass.Annotations.Is(obj, kind) {
		return true
	}
	// An unannotated call whose result type is loan-annotated still yields
	// a loan (only the launderers above sever that).
	if tv, ok := info.Types[call]; ok && tv.Type != nil && c.pass.Annotations.TypeIs(tv.Type, kind) {
		return true
	}
	// Calling a method on a tainted receiver whose result aliases it is
	// covered by annotating the method itself; unannotated calls are
	// clean.
	return false
}

// selectedObj resolves the object a selector denotes (field or method).
func selectedObj(info *types.Info, sel *ast.SelectorExpr) types.Object {
	if s, ok := info.Selections[sel]; ok {
		return s.Obj()
	}
	return info.Uses[sel.Sel]
}

// report walks the function again and emits diagnostics for loan escapes
// and view writes.
func (c *checker) report() {
	info := c.pass.TypesInfo
	var lits []*ast.FuncLit // enclosing closure stack

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, st)
			ast.Inspect(st.Body, walk)
			lits = lits[:len(lits)-1]
			return false
		case *ast.AssignStmt:
			c.checkAssign(st, lits)
		case *ast.IncDecStmt:
			c.checkViewWrite(st.X, st.Pos())
		case *ast.CallExpr:
			if framework.IsBuiltinCall(info, st, "copy") && len(st.Args) == 2 {
				if c.taints(st.Args[0], framework.KindView) {
					c.pass.Reportf(st.Pos(), "write through read-only //dynlint:view alias (copy into view)")
				}
			}
		}
		return true
	}
	ast.Inspect(c.fn.Body, walk)
}

// checkAssign reports loan escapes (stores into fields, package vars, or
// captured variables) and view element writes.
func (c *checker) checkAssign(st *ast.AssignStmt, lits []*ast.FuncLit) {
	info := c.pass.TypesInfo
	for i, lhs := range st.Lhs {
		var rhs ast.Expr
		switch {
		case len(st.Lhs) == len(st.Rhs):
			rhs = st.Rhs[i]
		case len(st.Rhs) == 1:
			rhs = st.Rhs[0]
		default:
			continue
		}
		lhs = ast.Unparen(lhs)

		// View (and loaned-slice) element writes: v[i] = x.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			c.checkViewWrite(ix, st.Pos())
			continue
		}

		loaned := c.assignTaints(st, rhs)
		if !loaned {
			continue
		}
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			c.checkFieldStore(st, l)
		case *ast.Ident:
			obj := c.lhsObj(l)
			if obj == nil || st.Tok == token.DEFINE && info.Defs[l] != nil {
				// A fresh local: aliasing locally is fine.
				continue
			}
			v, ok := obj.(*types.Var)
			if !ok {
				continue
			}
			if v.Parent() == c.pass.Pkg.Scope() {
				c.pass.Reportf(st.Pos(), "pooled //dynlint:loan value stored in package variable %s; it is reused by the engine — Retain/Clone it", v.Name())
				continue
			}
			// Captured from an enclosing scope inside a closure: the
			// closure's writes outlive the observer call.
			if len(lits) > 0 && v.Pos().IsValid() {
				lit := lits[len(lits)-1]
				if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
					c.pass.Reportf(st.Pos(), "pooled //dynlint:loan value escapes the callback into captured variable %s; it is valid only for this round — Retain/Clone it", v.Name())
				}
			}
		}
	}
}

// assignTaints reports whether rhs carries loan taint for escape checking.
func (c *checker) assignTaints(st *ast.AssignStmt, rhs ast.Expr) bool {
	if len(st.Lhs) == len(st.Rhs) || len(st.Rhs) != 1 {
		return c.taints(rhs, framework.KindLoan)
	}
	// Tuple call: tainted when the callee is loan-annotated.
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	return c.pass.Annotations.Is(framework.CalleeObj(c.pass.TypesInfo, call), framework.KindLoan)
}

// checkFieldStore reports a loan stored into a struct field, unless the
// destination field (or its owning type) is itself loan-annotated — a
// handoff that re-exports the pooled lifetime rather than hiding it.
func (c *checker) checkFieldStore(st *ast.AssignStmt, sel *ast.SelectorExpr) {
	info := c.pass.TypesInfo
	obj := selectedObj(info, sel)
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if !v.IsField() {
		// Package-qualified variable pkg.Var.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			c.pass.Reportf(st.Pos(), "pooled //dynlint:loan value stored in package variable %s.%s; it is reused by the engine — Retain/Clone it", v.Pkg().Name(), v.Name())
		}
		return
	}
	if c.pass.Annotations.Is(v, framework.KindLoan) {
		return // loan-to-loan handoff
	}
	if tv, ok := info.Types[sel.X]; ok && c.pass.Annotations.TypeIs(tv.Type, framework.KindLoan) {
		return // field of a loan-annotated struct re-exports the lifetime
	}
	c.pass.Reportf(st.Pos(), "pooled //dynlint:loan value stored in field %s outlives its round; Retain/Clone it (or annotate the field //dynlint:loan)", v.Name())
}

// checkViewWrite reports element writes through view-annotated aliases.
func (c *checker) checkViewWrite(lhs ast.Expr, pos token.Pos) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if c.taints(ix.X, framework.KindView) {
		c.pass.Reportf(pos, "write through read-only //dynlint:view alias; it aliases owner storage — Clone it to mutate")
	}
}
