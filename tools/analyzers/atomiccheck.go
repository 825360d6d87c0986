package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicCheck flags the two ways the package's atomic counters can be used
// unsoundly:
//
//  1. Copying: assigning, passing, or ranging a sync/atomic value (or any
//     struct that transitively contains one) by value. The copy silently
//     forks the counter — all sync/atomic types carry a noCopy guard for
//     exactly this reason, but `go vet -copylocks` only knows about locks.
//  2. Mixed access: a plain integer field that is touched through the
//     atomic.AddInt64/LoadInt64/... function forms somewhere in the package
//     must be touched that way everywhere; any plain read or write of the
//     same field is a data race.
//
// _test.go files are skipped.
var AtomicCheck = &Analyzer{
	Name: "atomiccheck",
	Doc:  "flag copies of sync/atomic values and mixed atomic/plain access to counters",
	Run:  runAtomicCheck,
}

func runAtomicCheck(pass *Pass) error {
	c := &atomicChecker{pass: pass, atomicFields: map[*types.Var]bool{}}
	// Pass 1: find fields used via the atomic.* function forms.
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok && c.isAtomicFuncCall(call) {
				c.recordAtomicOperand(call)
			}
			return true
		})
	}
	// Pass 2: flag copies and plain accesses.
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		c.checkFile(f)
	}
	return nil
}

type atomicChecker struct {
	pass         *Pass
	atomicFields map[*types.Var]bool // fields accessed via atomic.* functions
}

// isAtomicFuncCall reports whether call is sync/atomic.AddInt64 and friends.
func (c *atomicChecker) isAtomicFuncCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := c.pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	_, isFunc := obj.(*types.Func)
	return isFunc
}

// recordAtomicOperand notes the field behind the &x.f first argument.
func (c *atomicChecker) recordAtomicOperand(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	un, ok := call.Args[0].(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return
	}
	sel, ok := un.X.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if s, ok := c.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			c.atomicFields[v] = true
		}
	}
}

func (c *atomicChecker) checkFile(f *ast.File) {
	// Track positions already inside an atomic.*(&x.f, ...) operand or an
	// explicit &x.f so they are not reported as plain accesses.
	sanctioned := map[*ast.SelectorExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if un, ok := n.(*ast.UnaryExpr); ok && un.Op == token.AND {
			if sel, ok := un.X.(*ast.SelectorExpr); ok {
				sanctioned[sel] = true
			}
		}
		return true
	})

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				c.checkCopy(r)
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				c.checkCopy(v)
			}
		case *ast.CallExpr:
			if !c.isAtomicFuncCall(n) {
				for _, a := range n.Args {
					c.checkCopy(a)
				}
			}
		case *ast.RangeStmt:
			if x := n.X; x != nil {
				if t := c.pass.TypesInfo.TypeOf(x); t != nil {
					if sl, ok := t.Underlying().(*types.Slice); ok && containsAtomic(sl.Elem()) {
						c.pass.Reportf(n.Range, "range copies %s values containing sync/atomic fields", sl.Elem())
					}
				}
			}
		case *ast.SelectorExpr:
			if sanctioned[n] {
				return true
			}
			c.checkPlainAccess(n)
		}
		return true
	})
}

// checkCopy flags e when evaluating it copies an atomic-bearing value out of
// existing memory (reading a variable, field, element, or dereference —
// fresh composites and calls construct new values and are fine). A type
// operand, as in new(T), names a type and copies nothing.
func (c *atomicChecker) checkCopy(e ast.Expr) {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	if c.pass.TypesInfo.Types[e].IsType() {
		return
	}
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil || !containsAtomic(t) {
		return
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return
	}
	c.pass.Reportf(e.Pos(), "copies a %s value containing sync/atomic state; use a pointer", t)
}

// checkPlainAccess flags non-atomic touches of fields that are elsewhere
// accessed through the atomic.* function forms.
func (c *atomicChecker) checkPlainAccess(sel *ast.SelectorExpr) {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !c.atomicFields[v] {
		return
	}
	c.pass.Reportf(sel.Sel.Pos(), "non-atomic access to %s, which is accessed with sync/atomic elsewhere", v.Name())
}

// containsAtomic reports whether t is or transitively contains a sync/atomic
// type.
func containsAtomic(t types.Type) bool {
	return containsAtomic1(t, map[types.Type]bool{})
}

func containsAtomic1(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && !strings.HasPrefix(obj.Name(), "no") {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsAtomic1(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsAtomic1(u.Elem(), seen)
	}
	return false
}
