// Package nilguard enforces the trace layer's zero-overhead contract: a
// nil *trace.Sink (or *trace.Track) is the disabled tracer, so every
// exported pointer-receiver method on those types must begin with the
// `if s == nil { return ... }` fast path. A method that touches a field
// before that guard panics the instant someone runs with tracing off —
// the exact configuration the golden figure runs use.
//
// Checked types are Sink and Track in any package whose import path ends
// in internal/trace, plus any type whose declaration carries a
// `//lint:sink` marker in its doc comment (the hook for registering future
// sink-like types).
//
// Accepted method shapes:
//
//   - first statement `if s == nil { ... return }` (the condition may be
//     an || chain containing s == nil, as in `if t == nil || end <= start`);
//   - a single-return body that never reads a field of the receiver
//     (e.g. `func (s *Sink) Enabled() bool { return s != nil }` — method
//     calls are fine, nil-safe by this same contract; field reads are not).
//
// A second rule covers optional callback fields (hooks left nil when a
// feature is off): a function-typed struct field whose doc comment carries a
// `//lint:guardedcall` marker may only be invoked behind a nil check — either
// lexically inside `if x.Field != nil { ... }` (the condition may be an &&
// chain) or after an early-return `if x.Field == nil { return }` fast path
// earlier in the same block. The guard is matched on the full selector
// expression, so guarding a.Field does not license a call through b.Field.
// Calls are checked in the field's declaring package (the only place the
// simulator invokes its hooks); other packages merely assign them.
package nilguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"igosim/internal/lint/analysis"
)

// Analyzer is the nilguard check.
var Analyzer = &analysis.Analyzer{
	Name: "nilguard",
	Doc: "exported pointer-receiver methods on trace.Sink/Track (and //lint:sink types) " +
		"must start with the `if s == nil` fast-path return; calls through " +
		"//lint:guardedcall callback fields must sit behind a nil check",
	Run: run,
}

func run(pass *analysis.Pass) error {
	checkSinkMethods(pass)
	checkGuardedCalls(pass)
	return nil
}

func checkSinkMethods(pass *analysis.Pass) {
	targets := targetTypes(pass)
	if len(targets) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 || !fn.Name.IsExported() {
				continue
			}
			recvType, recvName := receiver(fn)
			if recvType == "" || !targets[recvType] {
				continue
			}
			if recvName == "" {
				pass.Reportf(fn.Pos(), "exported method %s.%s discards its receiver and cannot implement the nil fast path; name the receiver and guard it", recvType, fn.Name.Name)
				continue
			}
			if fn.Body == nil || guarded(pass, fn, recvName) {
				continue
			}
			pass.Reportf(fn.Pos(), "exported method (*%s).%s must begin with the `if %s == nil` fast-path return (zero-overhead-when-disabled contract)", recvType, fn.Name.Name, recvName)
		}
	}
}

// checkGuardedCalls enforces the //lint:guardedcall contract: every call
// through a marked callback field must be dominated by a nil check on that
// exact selector expression.
func checkGuardedCalls(pass *analysis.Pass) {
	marked := markedCallbackFields(pass)
	if len(marked) == 0 {
		return
	}
	c := &callChecker{pass: pass, marked: marked}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				c.stmts(fn.Body.List, nil)
			}
		}
	}
}

// markedCallbackFields collects the function-typed struct fields whose doc
// comment carries the `//lint:guardedcall` marker.
func markedCallbackFields(pass *analysis.Pass) map[types.Object]bool {
	marked := make(map[types.Object]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if _, ok := field.Type.(*ast.FuncType); !ok {
					continue
				}
				if !hasMarker(field.Doc) && !hasMarker(field.Comment) {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						marked[obj] = true
					}
				}
			}
			return true
		})
	}
	return marked
}

func hasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, "lint:guardedcall") {
			return true
		}
	}
	return false
}

// callChecker walks function bodies carrying the set of callback selector
// expressions (keyed by their printed form, e.g. "b.OnChange") currently
// proven non-nil.
type callChecker struct {
	pass   *analysis.Pass
	marked map[types.Object]bool
}

// stmts checks a statement list. An early-return `if x.F == nil { return }`
// extends the guarded set for the remainder of the same block — the shape
// of a single notify helper with a nil fast path.
func (c *callChecker) stmts(list []ast.Stmt, guarded map[string]bool) {
	guarded = cloneSet(guarded)
	for _, s := range list {
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Init == nil {
			c.walk(ifs.Cond, guarded)
			c.stmts(ifs.Body.List, withKeys(guarded, c.nilCmpKeys(ifs.Cond, token.NEQ, token.LAND)))
			if ifs.Else != nil {
				c.walk(ifs.Else, guarded)
			}
			if keys := c.nilCmpKeys(ifs.Cond, token.EQL, token.LOR); len(keys) > 0 && endsInReturn(ifs.Body) {
				for _, k := range keys {
					guarded[k] = true
				}
			}
			continue
		}
		c.walk(s, guarded)
	}
}

// walk checks an arbitrary subtree, descending into nested blocks and if
// statements with the appropriate guard extensions.
func (c *callChecker) walk(n ast.Node, guarded map[string]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.BlockStmt:
			c.stmts(v.List, guarded)
			return false
		case *ast.IfStmt:
			if v.Init != nil {
				c.walk(v.Init, guarded)
			}
			c.walk(v.Cond, guarded)
			c.stmts(v.Body.List, withKeys(guarded, c.nilCmpKeys(v.Cond, token.NEQ, token.LAND)))
			if v.Else != nil {
				c.walk(v.Else, guarded)
			}
			return false
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
				if k, ok := c.fieldKey(sel); ok && !guarded[k] {
					c.pass.Reportf(v.Pos(), "call to guarded callback %s must sit behind an `if %s != nil` check or a preceding nil fast-path return", k, k)
				}
			}
			return true
		}
		return true
	})
}

// nilCmpKeys collects the marked-field selectors compared against nil with
// cmp inside a chain of the given logical operator: NEQ/&& operands prove
// the field non-nil inside the branch, EQL/|| operands prove it non-nil
// after an early-return branch.
func (c *callChecker) nilCmpKeys(cond ast.Expr, cmp, chain token.Token) []string {
	cond = ast.Unparen(cond)
	if bin, ok := cond.(*ast.BinaryExpr); ok {
		switch bin.Op {
		case chain:
			return append(c.nilCmpKeys(bin.X, cmp, chain), c.nilCmpKeys(bin.Y, cmp, chain)...)
		case cmp:
			if k, ok := c.fieldKey(bin.X); ok && isNil(bin.Y) {
				return []string{k}
			}
			if k, ok := c.fieldKey(bin.Y); ok && isNil(bin.X) {
				return []string{k}
			}
		}
	}
	return nil
}

// fieldKey resolves e to a marked callback field selection and returns its
// printed selector expression as the guard key.
func (c *callChecker) fieldKey(e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s := c.pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || !c.marked[s.Obj()] {
		return "", false
	}
	return types.ExprString(sel), true
}

func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func withKeys(s map[string]bool, keys []string) map[string]bool {
	if len(keys) == 0 {
		return s
	}
	out := cloneSet(s)
	for _, k := range keys {
		out[k] = true
	}
	return out
}

// targetTypes returns the type names whose methods must be nil-guarded.
func targetTypes(pass *analysis.Pass) map[string]bool {
	targets := make(map[string]bool)
	path := pass.Pkg.Path()
	if path == "internal/trace" || strings.HasSuffix(path, "/internal/trace") {
		targets["Sink"] = true
		targets["Track"] = true
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, doc := range [2]*ast.CommentGroup{gd.Doc, ts.Doc} {
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						if strings.Contains(c.Text, "lint:sink") {
							targets[ts.Name.Name] = true
						}
					}
				}
			}
		}
	}
	return targets
}

// receiver extracts the pointer receiver's base type name and binding name
// ("" for value receivers, which a nil pointer can never reach).
func receiver(fn *ast.FuncDecl) (typeName, recvName string) {
	field := fn.Recv.List[0]
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return "", ""
	}
	base := star.X
	if idx, ok := base.(*ast.IndexExpr); ok { // generic receiver
		base = idx.X
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if len(field.Names) == 1 && field.Names[0].Name != "_" {
		return id.Name, field.Names[0].Name
	}
	return id.Name, ""
}

// guarded reports whether the method body starts with the nil fast path or
// is a single return that never reads a receiver field.
func guarded(pass *analysis.Pass, fn *ast.FuncDecl, recvName string) bool {
	body := fn.Body.List
	if len(body) == 0 {
		return true // nothing to do is nil-safe
	}
	if ifs, ok := body[0].(*ast.IfStmt); ok && ifs.Init == nil {
		if condHasNilCheck(ifs.Cond, recvName) && endsInReturn(ifs.Body) {
			return true
		}
	}
	if len(body) == 1 {
		if ret, ok := body[0].(*ast.ReturnStmt); ok && !readsField(pass, ret, recvName) {
			return true
		}
	}
	return false
}

// condHasNilCheck reports whether cond contains `recv == nil` as an ||
// operand (checked first, so it still short-circuits for nil receivers).
func condHasNilCheck(cond ast.Expr, recvName string) bool {
	cond = ast.Unparen(cond)
	if bin, ok := cond.(*ast.BinaryExpr); ok {
		switch bin.Op {
		case token.LOR:
			return condHasNilCheck(bin.X, recvName) || condHasNilCheck(bin.Y, recvName)
		case token.EQL:
			return isIdent(bin.X, recvName) && isNil(bin.Y) || isNil(bin.X) && isIdent(bin.Y, recvName)
		}
	}
	return false
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// endsInReturn reports whether the block's last statement is a return.
func endsInReturn(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	_, ok := block.List[len(block.List)-1].(*ast.ReturnStmt)
	return ok
}

// readsField reports whether n selects a struct field of the receiver —
// the dereference that panics on a nil pointer. Method selections are
// allowed: they dispatch without dereferencing.
func readsField(pass *analysis.Pass, n ast.Node, recvName string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		sel, ok := m.(*ast.SelectorExpr)
		if !ok || !isIdent(sel.X, recvName) {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			found = true
			return false
		}
		return true
	})
	return found
}
