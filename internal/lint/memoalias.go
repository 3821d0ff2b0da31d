package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Memoalias enforces the copy-on-return rule (PR 3): a function that reads
// a slice- or map-valued entry out of a memo/cache must hand the caller a
// copy, never the cached value itself — an aliased return lets the caller
// mutate cache-private state and silently poison every later replay.
//
// A map expression is memo-like when any identifier in the expression, or
// the named type of any prefix of the selector chain, mentions "memo" or
// "cache" (case-insensitive): bm.sol on a *budgetMemo qualifies via the
// receiver's type name. A struct field is a memo field when its name or its
// doc or line comment mentions memo or cache (`exps memoizes enumerations
// per source downset`). Values are aliasing-prone when their underlying
// type is (or transitively contains, through struct fields) a slice or map.
// Pointer-valued caches are exempt: handing out a shared, internally
// synchronized *spg.Analysis is the cache's purpose, not a leak.
//
// A value is memo-derived when it is a lookup in a memo-like map, a memo
// field, a field, element or sub-slice of a memo-derived value, a variable
// bound to a memo-derived value and not rebound since, or the result of a
// same-package function that returns a memo-derived value. Memo-derived
// pointers are tracked too — c.exps[i] may be a *entry — but only the
// aliasing-prone values reached through them are findings.
//
// Flagged: returning an aliasing-prone memo-derived value — `return
// m.cache[k]`, `v, ok := m.cache[k]; ...; return v`, `return c.exps[i].exps`,
// `entry := c.lookupLocked(k); return entry.exps`. Passing a value through
// any call that is not itself memo-returning (a clone helper, append-copy)
// or rebinding the variable clears the taint. A helper that deliberately
// returns memo state to same-package callers carries a suppression with its
// reason, and its callers stay checked.
var Memoalias = &Analyzer{
	Name: "memoalias",
	Doc: "functions returning values from memo/cache maps or fields must return copies " +
		"(copy-on-return); returning the cached slice/map aliases private cache state",
	Packages: []string{
		"spgcmp/internal/core",
		"spgcmp/internal/spg",
	},
	Run: runMemoalias,
}

// memoState is one package's view of where memo data lives: the memo
// fields (by comment or name) and the functions returning memo data.
type memoState struct {
	info   *types.Info
	fields map[*types.Var]bool
	funcs  map[*types.Func]bool
}

func runMemoalias(pass *Pass) error {
	ms := &memoState{info: pass.TypesInfo, fields: memoFields(pass), funcs: make(map[*types.Func]bool)}
	var bodies []*ast.BlockStmt
	var decls []*types.Func // parallel to bodies; nil for literals
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch f := n.(type) {
			case *ast.FuncDecl:
				if f.Body != nil {
					fn, _ := pass.TypesInfo.Defs[f.Name].(*types.Func)
					bodies, decls = append(bodies, f.Body), append(decls, fn)
				}
			case *ast.FuncLit:
				bodies, decls = append(bodies, f.Body), append(decls, nil)
			}
			return true
		})
	}
	// Memo-returning functions, to a fixed point: a helper returning a
	// helper's memo data returns memo data too. Returned pointers count:
	// callers may reach memo slices through them.
	for changed := true; changed; {
		changed = false
		for i, body := range bodies {
			if fn := decls[i]; fn != nil && !ms.funcs[fn] && len(ms.leaks(body)) > 0 {
				ms.funcs[fn] = true
				changed = true
			}
		}
	}
	for _, body := range bodies {
		for _, l := range ms.leaks(body) {
			if l.msg != "" {
				pass.Reportf(l.pos, "%s", l.msg)
			}
		}
	}
	return nil
}

// memoFields collects the struct fields of the package whose name or
// comment mentions memo or cache.
func memoFields(pass *Pass) map[*types.Var]bool {
	fields := make(map[*types.Var]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				text := f.Doc.Text() + f.Comment.Text()
				for _, name := range f.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && nameSuggestsMemo(name.Name+" "+text) {
						fields[v] = true
					}
				}
			}
			return true
		})
	}
	return fields
}

// memoLeak is one memo-derived value a function returns; msg is empty when
// the value cannot alias (a pointer or a scalar).
type memoLeak struct {
	pos token.Pos
	msg string
}

// leaks returns the memo-derived values body returns.
func (ms *memoState) leaks(body *ast.BlockStmt) []memoLeak {
	info := ms.info
	// taints: variables bound to a memo-derived value, keyed by object with
	// the position of the binding.
	taints := make(map[types.Object]token.Pos)
	sources := make(map[types.Object]string) // what each taint was read from
	var rebinds []struct {
		obj types.Object
		pos token.Pos
	}
	// tainted reports whether obj holds a memo-derived value at pos.
	tainted := func(obj types.Object, pos token.Pos) bool {
		tpos, ok := taints[obj]
		if !ok || tpos > pos {
			return false
		}
		for _, rb := range rebinds {
			if rb.obj == obj && rb.pos > tpos && rb.pos < pos {
				return false
			}
		}
		return true
	}
	var out []memoLeak
	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.FuncLit:
			return false // nested functions are visited on their own
		case *ast.AssignStmt:
			// v, ok := m[k] / v := c.exps[i] / v, err := c.memoLocked(k):
			// one memo-derived right-hand side taints every variable bound.
			if len(stmt.Rhs) == 1 && ms.derived(stmt.Rhs[0], stmt.Pos(), tainted) {
				src := "memo/cache"
				if idx, ok := ast.Unparen(stmt.Rhs[0]).(*ast.IndexExpr); ok && memoMapIndex(info, idx) {
					src = "memo/cache map"
				}
				for _, lhs := range stmt.Lhs {
					if obj := identObj(info, lhs); obj != nil {
						taints[obj], sources[obj] = stmt.Pos(), src
					}
				}
				return true
			}
			// Any other assignment to a tainted variable clears its taint.
			for _, lhs := range stmt.Lhs {
				if obj := identObj(info, lhs); obj != nil {
					rebinds = append(rebinds, struct {
						obj types.Object
						pos token.Pos
					}{obj, stmt.Pos()})
				}
			}
		case *ast.RangeStmt:
			// for _, v := range memoDerived: v is an element of memo data.
			if stmt.Value != nil && ms.derived(stmt.X, stmt.Pos(), tainted) {
				if obj := identObj(info, stmt.Value); obj != nil {
					taints[obj], sources[obj] = stmt.Pos(), "memo/cache"
				}
			}
		case *ast.ReturnStmt:
			for _, res := range stmt.Results {
				if !ms.derived(res, stmt.Pos(), tainted) {
					continue
				}
				if !aliasingProne(info.TypeOf(res)) {
					out = append(out, memoLeak{pos: res.Pos()})
					continue
				}
				var msg string
				switch x := ast.Unparen(res).(type) {
				case *ast.IndexExpr:
					if memoMapIndex(info, x) {
						msg = fmt.Sprintf("returns %s straight out of a memo/cache map", types.ExprString(res))
					}
				case *ast.Ident:
					msg = fmt.Sprintf("returns %s, read from a %s and never copied", x.Name, sources[identObj(info, x)])
				}
				if msg == "" {
					msg = fmt.Sprintf("returns %s, which holds memo/cache state", types.ExprString(res))
				}
				out = append(out, memoLeak{res.Pos(), msg + "; return a copy (copy-on-return)"})
			}
		}
		return true
	})
	return out
}

// derived reports whether e evaluates to memo data (see Memoalias) at pos.
func (ms *memoState) derived(e ast.Expr, pos token.Pos, tainted func(types.Object, token.Pos) bool) bool {
	info := ms.info
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := identObj(info, x)
		return obj != nil && tainted(obj, pos)
	case *ast.IndexExpr:
		if memoMapIndex(info, x) {
			return true
		}
		if _, isMap := typeUnder(info.TypeOf(x.X)).(*types.Map); isMap {
			return false // a plain map's entry; memo maps are caught above
		}
		return ms.derived(x.X, pos, tainted)
	case *ast.SliceExpr:
		return ms.derived(x.X, pos, tainted)
	case *ast.StarExpr:
		return ms.derived(x.X, pos, tainted)
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
			return ms.fields[v] || ms.derived(x.X, pos, tainted)
		}
	case *ast.CallExpr:
		var fn *types.Func
		switch f := ast.Unparen(x.Fun).(type) {
		case *ast.Ident:
			fn, _ = info.Uses[f].(*types.Func)
		case *ast.SelectorExpr:
			fn, _ = info.Uses[f.Sel].(*types.Func)
		}
		return fn != nil && ms.funcs[fn.Origin()]
	}
	return false
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// memoMapIndex reports whether idx indexes a memo-like map.
func memoMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return false
	}
	return memoLike(info, idx.X)
}

// memoLike walks the selector chain of e looking for memo/cache in an
// identifier or in the named type of any prefix.
func memoLike(info *types.Info, e ast.Expr) bool {
	for {
		if nameSuggestsMemo(types.ExprString(e)) {
			return true
		}
		if n := derefNamed(info.TypeOf(e)); n != nil && nameSuggestsMemo(n.Obj().Name()) {
			return true
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		e = sel.X
	}
}

func nameSuggestsMemo(s string) bool {
	s = strings.ToLower(s)
	return strings.Contains(s, "memo") || strings.Contains(s, "cache")
}

// aliasingProne reports whether returning a value of type t uncopied can
// alias interior state: its underlying type is, or a struct field chain
// reaches, a slice or map. Pointers are deliberate sharing, not aliasing
// leaks, and are exempt.
func aliasingProne(t types.Type) bool {
	return aliasingProneVisit(t, make(map[types.Type]bool))
}

func aliasingProneVisit(t types.Type, visiting map[types.Type]bool) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if visiting[t] {
		return false
	}
	visiting[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	case *types.Array:
		return aliasingProneVisit(u.Elem(), visiting)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasingProneVisit(u.Field(i).Type(), visiting) {
				return true
			}
		}
	}
	return false
}
