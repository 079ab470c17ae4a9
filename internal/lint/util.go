package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// namedFrom unwraps at most one pointer and reports the named type, if any.
func namedFrom(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isPkgType reports whether t (possibly behind a pointer) is the named type
// name declared in a package whose import path ends in pkgSuffix. Matching by
// suffix keeps the analyzers working against both the real module path and
// any vendored or corpus copy.
func isPkgType(t types.Type, pkgSuffix, name string) bool {
	n := namedFrom(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && strings.HasSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

// calleeFunc resolves the static callee of a call expression, or nil when the
// callee is dynamic (function values, interface methods resolve to the
// interface's method object, which still carries a name and package).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
