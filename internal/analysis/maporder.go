package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` statements over maps inside the deterministic
// simulation packages. Go randomizes map iteration order per
// iteration, so any map range whose body has order-visible effects
// (calls, event emission, error selection, non-commutative
// accumulation) makes two same-seed runs diverge — exactly the failure
// mode that invalidates the paper's recorded tables.
//
// A map range is accepted without a waiver when the analyzer can prove
// the body order-insensitive:
//
//   - pure accumulation into scalars: `sum += v`, `n++`, bitwise
//     |=/&=/^= forms, with call-free operands;
//   - min/max accumulation: `if v < best { best = v }` where the
//     guarding condition compares the assigned variable against the
//     assigned value;
//   - building a map keyed (directly or through a call-free lookup) by
//     the range variable: `out[k] = v`, `seen[k] = true`;
//   - deleting the visited key: `delete(m, k)`;
//   - constant-only early returns: `return false` (all-quantified
//     predicates such as set equality);
//   - the collect-then-sort idiom: the body only appends to one local
//     slice and the statement immediately after the loop sorts that
//     slice (sort.Slice/Strings/Ints/Sort or slices.Sort*).
//
// Anything else needs either the sorted-snapshot idiom (see
// Scheduler.tasksByID) or an explicit waiver:
//
//	//rdlint:ordered-ok <reason>
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration with order-visible effects in deterministic packages",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	if !InDeterministicPackage(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		next := nextStmtMap(f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			c := newLoopChecker(pass, rs)
			if c.orderInsensitive(rs.Body, next[rs]) {
				return true
			}
			pass.Reportf(rs.For,
				"range over map %s in deterministic package %s is order-sensitive; iterate a sorted snapshot or a collection kept in order (e.g. tasksByID / GrantSet.IDs, both already ID-ordered) or waive with //rdlint:ordered-ok <reason>",
				pass.ExprString(rs.X), pass.Pkg.Path())
			return true
		})
	}
}

// nextStmtMap maps each statement to its next sibling inside the same
// block, so the collect-then-sort rule can inspect the statement that
// follows a range loop.
func nextStmtMap(f *ast.File) map[ast.Stmt]ast.Stmt {
	next := make(map[ast.Stmt]ast.Stmt)
	link := func(list []ast.Stmt) {
		for i := 0; i+1 < len(list); i++ {
			next[list[i]] = list[i+1]
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.BlockStmt:
			link(b.List)
		case *ast.CaseClause:
			link(b.Body)
		case *ast.CommClause:
			link(b.Body)
		}
		return true
	})
	return next
}

// loopChecker decides whether one map-range body is order-insensitive.
type loopChecker struct {
	pass *Pass
	rs   *ast.RangeStmt

	// locals are objects declared inside the loop body (plus the range
	// variables): assignments to them cannot leak order outside one
	// iteration.
	locals map[types.Object]bool

	// rangeVars are the key/value objects of the range statement.
	rangeVars map[types.Object]bool

	// collect maps slice variables that the body appends to; they must
	// be sorted immediately after the loop.
	collect map[types.Object]bool
}

func newLoopChecker(pass *Pass, rs *ast.RangeStmt) *loopChecker {
	c := &loopChecker{
		pass:      pass,
		rs:        rs,
		locals:    make(map[types.Object]bool),
		rangeVars: make(map[types.Object]bool),
		collect:   make(map[types.Object]bool),
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				c.rangeVars[obj] = true
				c.locals[obj] = true
			}
			// `for k, v := range` with = (not :=) assigns outer vars:
			// treat them as order-carrying, i.e. not local.
			if rs.Tok == token.ASSIGN {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					delete(c.locals, obj)
				}
			}
		}
	}
	return c
}

// orderInsensitive is the entry point: body must consist only of
// allowed statements, and any collect targets must be sorted by the
// statement that follows the loop.
func (c *loopChecker) orderInsensitive(body *ast.BlockStmt, after ast.Stmt) bool {
	for _, s := range body.List {
		if !c.allowedStmt(s, nil) {
			return false
		}
	}
	if len(c.collect) == 0 {
		return true
	}
	if len(c.collect) > 1 {
		return false // cannot match one trailing sort to several slices
	}
	return c.sortsCollected(after)
}

// allowedStmt reports whether s cannot observe or leak iteration
// order. conds is the stack of enclosing if-conditions within the
// loop, used to justify min/max updates.
func (c *loopChecker) allowedStmt(s ast.Stmt, conds []ast.Expr) bool {
	switch s := s.(type) {
	case *ast.BranchStmt:
		// continue skips an element — fine in any order. break/goto
		// stop early, which observes order.
		return s.Tok == token.CONTINUE && s.Label == nil

	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return false
			}
			for _, v := range vs.Values {
				if !c.callFree(v) {
					return false
				}
			}
			for _, name := range vs.Names {
				if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
					c.locals[obj] = true
				}
			}
		}
		return true

	case *ast.AssignStmt:
		return c.allowedAssign(s, conds)

	case *ast.IncDecStmt:
		return c.callFree(s.X)

	case *ast.IfStmt:
		if s.Init != nil {
			if !c.allowedStmt(s.Init, conds) {
				return false
			}
		}
		if !c.callFree(s.Cond) {
			return false
		}
		inner := append(conds, s.Cond)
		for _, bs := range s.Body.List {
			if !c.allowedStmt(bs, inner) {
				return false
			}
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			for _, bs := range e.List {
				if !c.allowedStmt(bs, conds) {
					return false
				}
			}
			return true
		case *ast.IfStmt:
			return c.allowedStmt(e, conds)
		default:
			return false
		}

	case *ast.ReturnStmt:
		// Early return is order-insensitive only when every result is
		// a constant: whichever element triggers it, the caller sees
		// the same value (e.g. `return false` in a set-equality check).
		for _, r := range s.Results {
			if !isConstExpr(r) {
				return false
			}
		}
		return true

	case *ast.ExprStmt:
		// delete(m, k) on the visited key: each key deleted at most
		// once, independent of order.
		call, ok := s.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 || !isBuiltinCall(c.pass, call, "delete") {
			return false
		}
		return c.callFree(call.Args[0]) && c.callFree(call.Args[1]) && c.mentionsRangeVar(call.Args[1])

	default:
		return false
	}
}

func (c *loopChecker) allowedAssign(s *ast.AssignStmt, conds []ast.Expr) bool {
	for _, r := range s.Rhs {
		// append(x, ...) is handled below; all other RHS must be
		// call-free.
		if !c.callFree(r) && !isAppendCall(c.pass, r) {
			return false
		}
	}
	switch s.Tok {
	case token.DEFINE:
		for _, l := range s.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				return false
			}
			if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
				c.locals[obj] = true
			}
		}
		for _, r := range s.Rhs {
			if isAppendCall(c.pass, r) {
				return false // defining a fresh slice from append leaks nothing, but keep the rule simple
			}
		}
		return true

	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative, associative accumulation (+, -, |, &, ^ over
		// integers): any order yields the same aggregate.
		return len(s.Lhs) == 1 && c.callFree(s.Lhs[0]) && !isFloatType(c.pass.TypesInfo.TypeOf(s.Lhs[0]))

	case token.ASSIGN:
		if len(s.Lhs) != len(s.Rhs) {
			return false
		}
		for i, l := range s.Lhs {
			if !c.allowedPlainAssign(l, s.Rhs[i], conds) {
				return false
			}
		}
		return true

	default:
		// *=, /=, %=, shifts: not commutative-safe in general.
		return false
	}
}

// allowedPlainAssign judges one `lhs = rhs` inside the loop.
func (c *loopChecker) allowedPlainAssign(lhs, rhs ast.Expr, conds []ast.Expr) bool {
	// Assignment to a loop-local: effects die with the iteration.
	if id, ok := lhs.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.locals[obj] {
			return c.callFree(rhs)
		}
		// x = append(x, elem): the collect half of collect-then-sort.
		if call, ok := rhs.(*ast.CallExpr); ok && isAppendCall(c.pass, rhs) {
			if len(call.Args) >= 1 && !call.Ellipsis.IsValid() {
				if base, ok := call.Args[0].(*ast.Ident); ok && base.Name == id.Name {
					for _, a := range call.Args[1:] {
						if !c.callFree(a) {
							return false
						}
					}
					if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
						c.collect[obj] = true
						return true
					}
				}
			}
			return false
		}
		// Min/max accumulation into an outer scalar.
		return c.callFree(rhs) && c.minMaxJustified(id, rhs, conds)
	}
	// out[k] = v: building a map keyed by the range variable. Map keys
	// from a range are unique, so writes never collide and order is
	// immaterial (lookup-translated keys, e.g. names[m], are assumed
	// injective — they translate a unique key).
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if _, isMap := c.pass.TypesInfo.TypeOf(ix.X).Underlying().(*types.Map); !isMap {
			return false
		}
		return c.callFree(ix.X) && c.callFree(ix.Index) && c.callFree(rhs) &&
			c.mentionsRangeVar(ix.Index)
	}
	return false
}

// minMaxJustified reports whether an enclosing if-condition compares
// the assigned variable against the assigned value with an ordering
// operator — the `if v < best { best = v }` shape. Requiring the
// compared value to be the assigned value keeps ties harmless: equal
// candidates assign equal results whatever the order.
func (c *loopChecker) minMaxJustified(lhs *ast.Ident, rhs ast.Expr, conds []ast.Expr) bool {
	lstr := c.pass.ExprString(lhs)
	rstr := c.pass.ExprString(rhs)
	for _, cond := range conds {
		found := false
		ast.Inspect(cond, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || found {
				return !found
			}
			switch b.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				x, y := c.pass.ExprString(b.X), c.pass.ExprString(b.Y)
				if (x == lstr && y == rstr) || (x == rstr && y == lstr) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// sortsCollected reports whether stmt sorts the single collected
// slice: sort.Slice/SliceStable/Strings/Ints/Sort(x, ...) or
// slices.Sort/SortFunc/SortStableFunc(x, ...).
func (c *loopChecker) sortsCollected(stmt ast.Stmt) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := c.pass.TypesInfo.Uses[pkgID].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "sort":
		switch sel.Sel.Name {
		case "Slice", "SliceStable", "Strings", "Ints", "Float64s", "Sort", "Stable":
		default:
			return false
		}
	case "slices":
		switch sel.Sel.Name {
		case "Sort", "SortFunc", "SortStableFunc":
		default:
			return false
		}
	default:
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	obj := c.pass.TypesInfo.Uses[arg]
	return obj != nil && c.collect[obj]
}

// mentionsRangeVar reports whether e references one of the range
// variables.
func (c *loopChecker) mentionsRangeVar(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.rangeVars[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// callFree reports whether e contains no function or method calls
// (type conversions and len/cap/min/max are permitted) and no
// function literals.
func (c *loopChecker) callFree(e ast.Expr) bool {
	if e == nil {
		return false
	}
	free := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			free = false
		case *ast.CallExpr:
			if tv, ok := c.pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "len", "cap", "min", "max":
						return true
					}
				}
			}
			free = false
		}
		return free
	})
	return free
}

func isAppendCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && isBuiltinCall(pass, call, "append")
}

// isBuiltinCall reports whether call is a call of the named builtin.
func isBuiltinCall(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func isConstExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return e.Name == "true" || e.Name == "false" || e.Name == "nil"
	case *ast.UnaryExpr:
		return isConstExpr(e.X)
	}
	return false
}
