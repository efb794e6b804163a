// Package rawrelease enforces the transport.RawPayload view checkout
// protocol of the zero-copy receive path.
//
// A RawPayload wraps bytes that still live in a transport-owned buffer
// (typically a pooled readLoop frame). Taking a typed view of it —
// AsF16 or the generic RawPayloadView — checks the buffer out:
// from that point the function owns an obligation to call Release (or
// Decode, which releases) on every path, or to hand the payload to
// another owner. The analyzer tracks each payload through its function
// and flags:
//
//   - unbalanced views: a view is taken but the payload is not Released
//     on every path out of the function — the frame pool leaks
//     (OutstandingFrameBufs catches this only when a test happens to
//     exercise the leaky path);
//   - use-after-release: a view variable read, returned, or passed on
//     after the payload's Release — the underlying buffer may already
//     belong to the next sender. Release itself (idempotent) and Elems
//     (reads a cached count) remain legal on a released payload;
//   - late views: AsF16/RawPayloadView called after Release;
//   - Decode after Release: Decode re-reads the released bytes;
//   - goroutine escapes: a goroutine capturing the payload or one of
//     its views while the spawning function also Releases it — the
//     goroutine would race the buffer's next owner.
//
// Ownership transfer discharges the obligation: passing the payload to
// another call (the mpi buffer helpers release on the caller's behalf),
// returning it or a view of it (the transport accessors hand views to
// their caller, who holds the payload), storing it into a message or
// channel, or mentioning it in a deferred cleanup. The autopilot
// statexfer receive loop — take the byte view, copy out, Release — is
// the golden pattern.
package rawrelease

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the rawrelease pass.
var Analyzer = &analysis.Analyzer{
	Name: "rawrelease",
	Doc:  "RawPayload views must be balanced by Release on every path: no leaks, no use-after-release, no goroutine escapes",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a := &funcAnalysis{
				pass:     pass,
				aliasOf:  map[*types.Var]*types.Var{},
				viewVars: map[*types.Var]*types.Var{},
				viewPos:  map[*types.Var]token.Pos{},
				released: map[*types.Var]bool{},
				deferRel: map[*types.Var]bool{},
				reported: map[string]bool{},
			}
			a.prescan(fd.Body)
			if !a.touches {
				continue
			}
			st := state{}
			a.block(fd.Body.List, st)
			if !terminates(fd.Body.List) {
				a.finish(st)
			}
		}
	}
	return nil, nil
}

// Per-path payload status.
const (
	stLive     = iota // tracked, no outstanding view
	stViewed          // a view is checked out; Release or transfer owed
	stReleased        // buffer returned; views are dead
	stXfer            // ownership handed elsewhere; nothing owed here
)

// state maps each payload variable to its status on the current path.
type state map[*types.Var]int

func (st state) clone() state {
	out := state{}
	for k, v := range st {
		out[k] = v
	}
	return out
}

type funcAnalysis struct {
	pass     *analysis.Pass
	aliasOf  map[*types.Var]*types.Var // interface var -> payload var it was asserted into
	viewVars map[*types.Var]*types.Var // view var -> payload var
	viewPos  map[*types.Var]token.Pos  // payload var -> first view acquisition
	released map[*types.Var]bool       // Released/Decoded anywhere (incl. defers, closures)
	deferRel map[*types.Var]bool       // Released via defer
	touches  bool                      // function views or releases a payload at all
	reported map[string]bool           // dedup (loop bodies walk twice)
}

func (a *funcAnalysis) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%v:%s", pos, msg)
	if a.reported[key] {
		return
	}
	a.reported[key] = true
	a.pass.Reportf(pos, "%s", msg)
}

// isRawPayloadPtr reports whether t is *transport.RawPayload.
func isRawPayloadPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RawPayload" && obj.Pkg() != nil &&
		analysis.PathHasSuffix(obj.Pkg().Path(), "transport")
}

// payloadVar resolves e to the payload variable it names, following one
// level of type-assert aliasing (pay -> p), or nil.
func (a *funcAnalysis) payloadVar(e ast.Expr) *types.Var {
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := a.pass.ObjectOf(id).(*types.Var)
	if v == nil {
		return nil
	}
	if isRawPayloadPtr(v.Type()) {
		return v
	}
	if p := a.aliasOf[v]; p != nil {
		return p
	}
	return nil
}

// transportFunc reports whether obj is a function from the transport
// package (real or fixture mirror) with the given name.
func transportFunc(obj types.Object, name string) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Name() == name && fn.Pkg() != nil &&
		analysis.PathHasSuffix(fn.Pkg().Path(), "transport")
}

// viewCall matches p.AsF16() and RawPayloadView[T](p),
// returning the viewed payload variable.
func (a *funcAnalysis) viewCall(call *ast.CallExpr) (*types.Var, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "AsF16" && transportFunc(a.pass.ObjectOf(sel.Sel), sel.Sel.Name) {
			return a.payloadVar(sel.X), true
		}
		return nil, false
	}
	fun := call.Fun
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = a.pass.ObjectOf(f)
	case *ast.SelectorExpr:
		obj = a.pass.ObjectOf(f.Sel)
	default:
		return nil, false
	}
	if transportFunc(obj, "RawPayloadView") && len(call.Args) == 1 {
		return a.payloadVar(call.Args[0]), true
	}
	return nil, false
}

// releaseCall matches p.Release() and p.Decode(), returning the payload
// variable and the method name.
func (a *funcAnalysis) releaseCall(call *ast.CallExpr) (*types.Var, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Release" && sel.Sel.Name != "Decode") {
		return nil, "", false
	}
	if !transportFunc(a.pass.ObjectOf(sel.Sel), sel.Sel.Name) {
		return nil, "", false
	}
	return a.payloadVar(sel.X), sel.Sel.Name, true
}

// elemsCall matches p.Elems(), which stays legal after Release.
func (a *funcAnalysis) elemsCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Elems" && transportFunc(a.pass.ObjectOf(sel.Sel), "Elems") &&
		a.payloadVar(sel.X) != nil
}

// prescan records type-assert aliases and which payloads are ever
// released, so goroutine escapes and deferred releases can be judged.
func (a *funcAnalysis) prescan(body *ast.BlockStmt) {
	// Aliases first: the release sweep resolves through them.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
				if ta, ok := n.Rhs[0].(*ast.TypeAssertExpr); ok && ta.Type != nil {
					if t := a.pass.TypeOf(ta.Type); t != nil && isRawPayloadPtr(t) {
						if src := a.varOf(ta.X); src != nil {
							if dst := a.varOf(n.Lhs[0]); dst != nil {
								a.aliasOf[src] = dst
							}
						}
					}
				}
			}
		case *ast.TypeSwitchStmt:
			var src *types.Var
			if as, ok := n.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if ta, ok := as.Rhs[0].(*ast.TypeAssertExpr); ok {
					src = a.varOf(ta.X)
				}
			}
			if src == nil {
				return true
			}
			for _, cc := range n.Body.List {
				clause := cc.(*ast.CaseClause)
				if impl, ok := a.pass.TypesInfo.Implicits[clause].(*types.Var); ok && isRawPayloadPtr(impl.Type()) {
					a.aliasOf[src] = impl
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if p, _, ok := a.releaseCall(call); ok {
			a.touches = true
			if p != nil {
				a.released[p] = true
			}
		}
		if _, ok := a.viewCall(call); ok {
			a.touches = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		ast.Inspect(d.Call, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if p, _, ok := a.releaseCall(call); ok && p != nil {
					a.deferRel[p] = true
				}
			}
			return true
		})
		return true
	})
	// Deferred function literals release too (cleanup closures).
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if p, _, ok := a.releaseCall(call); ok && p != nil {
							a.deferRel[p] = true
						}
					}
					return true
				})
			}
		}
		return true
	})
}

func (a *funcAnalysis) varOf(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := a.pass.ObjectOf(id).(*types.Var)
	return v
}

// view processes a view acquisition on payload p.
func (a *funcAnalysis) view(call *ast.CallExpr, p *types.Var, st state) {
	if st[p] == stReleased {
		a.reportf(call.Pos(), "view of %s taken after Release: the underlying buffer may already be reused", p.Name())
		st[p] = stXfer // suppress follow-on noise
		return
	}
	if st[p] != stXfer {
		st[p] = stViewed
		if _, ok := a.viewPos[p]; !ok {
			a.viewPos[p] = call.Pos()
		}
	}
}

// scan walks an expression, handling view/release/Elems calls specially
// and treating any other mention of a payload as an ownership transfer
// (or a use-after-release if the payload is already released).
func (a *funcAnalysis) scan(n ast.Node, st state) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(nn ast.Node) bool {
		switch x := nn.(type) {
		case *ast.FuncLit:
			// A closure capturing the payload takes over its obligation.
			a.scanMentions(x.Body, st, "closure")
			return false
		case *ast.TypeAssertExpr:
			// pay.(*RawPayload) is the acquisition idiom, not a use.
			return false
		case *ast.CallExpr:
			if p, name, ok := a.releaseCall(x); ok {
				if p != nil {
					if st[p] == stReleased && name == "Decode" {
						a.reportf(x.Pos(), "Decode of %s after Release re-reads freed transport bytes", p.Name())
					}
					st[p] = stReleased
				}
				return false
			}
			if a.elemsCall(x) {
				return false
			}
			if p, ok := a.viewCall(x); ok {
				if p != nil {
					a.view(x, p, st)
				}
				return false
			}
			// Unknown call: nested special calls still apply, then any
			// surviving payload mention transfers ownership to the callee.
			for _, arg := range append([]ast.Expr{x.Fun}, x.Args...) {
				a.scanCallOperand(arg, st)
			}
			return false
		case *ast.Ident:
			a.mention(x, st, "")
		}
		return true
	})
}

// scanCallOperand processes one operand of an unknown call.
func (a *funcAnalysis) scanCallOperand(e ast.Expr, st state) {
	ast.Inspect(e, func(nn ast.Node) bool {
		switch x := nn.(type) {
		case *ast.FuncLit:
			a.scanMentions(x.Body, st, "closure")
			return false
		case *ast.CallExpr:
			// Recurse: f(g(p)) handles g(p) on its own terms.
			a.scan(x, st)
			return false
		case *ast.Ident:
			a.mention(x, st, "call")
		}
		return true
	})
}

// mention handles a bare identifier: view vars are checked for
// use-after-release; payload vars transfer ownership (a mention outside
// the protocol calls hands the payload to other code).
func (a *funcAnalysis) mention(id *ast.Ident, st state, ctx string) {
	v, _ := a.pass.ObjectOf(id).(*types.Var)
	if v == nil {
		return
	}
	if p, ok := a.viewVars[v]; ok {
		if st[p] == stReleased {
			a.reportf(id.Pos(), "use of view %s after its payload %s was Released: the frame buffer may already belong to the next sender", v.Name(), p.Name())
		}
		return
	}
	p := a.payloadVar(id)
	if p == nil {
		return
	}
	switch st[p] {
	case stReleased:
		if ctx == "call" {
			a.reportf(id.Pos(), "payload %s passed on after Release", p.Name())
		}
	case stXfer:
	default:
		st[p] = stXfer
	}
}

// scanMentions reports or transfers every payload/view mention in a
// subtree (closure and goroutine bodies).
func (a *funcAnalysis) scanMentions(n ast.Node, st state, what string) {
	ast.Inspect(n, func(nn ast.Node) bool {
		id, ok := nn.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := a.pass.ObjectOf(id).(*types.Var)
		if v == nil {
			return true
		}
		p := a.payloadVar(id)
		if p == nil {
			if pp, ok := a.viewVars[v]; ok {
				p = pp
			}
		}
		if p == nil {
			return true
		}
		if st[p] == stReleased {
			a.reportf(id.Pos(), "use of %s in a %s after its payload was Released", v.Name(), what)
		} else {
			st[p] = stXfer
		}
		return true
	})
}

// goMentions returns a payload captured by a goroutine that this
// function also releases somewhere — the racy escape.
func (a *funcAnalysis) goMentions(n ast.Node) *types.Var {
	var found *types.Var
	ast.Inspect(n, func(nn ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := nn.(*ast.Ident)
		if !ok {
			return true
		}
		p := a.payloadVar(id)
		if p == nil {
			if v, _ := a.pass.ObjectOf(id).(*types.Var); v != nil {
				p = a.viewVars[v]
			}
		}
		if p != nil && a.released[p] {
			found = p
			return false
		}
		return true
	})
	return found
}

func (a *funcAnalysis) block(stmts []ast.Stmt, st state) {
	for _, s := range stmts {
		a.stmt(s, st)
	}
}

func (a *funcAnalysis) stmt(s ast.Stmt, st state) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				if p, ok := a.viewCall(call); ok {
					if p != nil {
						a.view(call, p, st)
						if len(s.Lhs) >= 1 {
							if v := a.varOf(s.Lhs[0]); v != nil {
								a.viewVars[v] = p
							}
						}
					}
					return
				}
				if p, name, ok := a.releaseCall(call); ok {
					if p != nil {
						if st[p] == stReleased && name == "Decode" {
							a.reportf(call.Pos(), "Decode of %s after Release re-reads freed transport bytes", p.Name())
						}
						st[p] = stReleased
					}
					return
				}
			}
			if _, ok := s.Rhs[0].(*ast.TypeAssertExpr); ok {
				return // acquisition idiom; alias recorded in prescan
			}
		}
		for _, r := range s.Rhs {
			a.scan(r, st)
		}
	case *ast.ExprStmt:
		a.scan(s.X, st)
	case *ast.DeferStmt:
		if p, _, ok := a.releaseCall(s.Call); ok && p != nil {
			return // effects handled via deferRel
		}
		a.scan(s.Call, st)
	case *ast.GoStmt:
		if p := a.goMentions(s.Call); p != nil {
			a.reportf(s.Pos(), "goroutine captures payload %s (or a view of it), which this function also Releases: the goroutine would race the buffer's next owner", p.Name())
		}
		a.scanMentions(s.Call, st, "goroutine")
	case *ast.SendStmt:
		a.scan(s.Chan, st)
		a.scan(s.Value, st)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			a.returnResult(res, st)
		}
		a.finish(st)
	case *ast.IfStmt:
		if s.Init != nil {
			a.stmt(s.Init, st)
		}
		a.scan(s.Cond, st)
		thenSt := st.clone()
		a.block(s.Body.List, thenSt)
		elseSt := st.clone()
		if s.Else != nil {
			a.stmt(s.Else, elseSt)
		}
		termThen := terminates(s.Body.List)
		termElse := false
		if eb, ok := s.Else.(*ast.BlockStmt); ok {
			termElse = terminates(eb.List)
		}
		switch {
		case termThen && termElse:
			// Both paths left; whatever follows is unreachable.
		case termThen:
			replace(st, elseSt)
		case termElse:
			replace(st, thenSt)
		default:
			replace(st, joined(thenSt, elseSt))
		}
	case *ast.BlockStmt:
		a.block(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			a.stmt(s.Init, st)
		}
		if s.Cond != nil {
			a.scan(s.Cond, st)
		}
		// Two passes expose cross-iteration use-after-release; merging the
		// loop state back exposes views leaked out of the loop.
		loopSt := st.clone()
		a.block(s.Body.List, loopSt)
		a.block(s.Body.List, loopSt)
		replace(st, joined(st, loopSt))
	case *ast.RangeStmt:
		a.scan(s.X, st)
		loopSt := st.clone()
		a.block(s.Body.List, loopSt)
		a.block(s.Body.List, loopSt)
		replace(st, joined(st, loopSt))
	case *ast.SwitchStmt:
		if s.Init != nil {
			a.stmt(s.Init, st)
		}
		if s.Tag != nil {
			a.scan(s.Tag, st)
		}
		a.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		a.caseClauses(s.Body, st)
	case *ast.SelectStmt:
		states := []state{}
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			ccSt := st.clone()
			if clause.Comm != nil {
				a.stmt(clause.Comm, ccSt)
			}
			a.block(clause.Body, ccSt)
			if !terminates(clause.Body) {
				states = append(states, ccSt)
			}
		}
		if len(states) > 0 {
			replace(st, joined(states...))
		}
	case *ast.LabeledStmt:
		a.stmt(s.Stmt, st)
	default:
		if s != nil {
			a.scan(s, st)
		}
	}
}

// caseClauses walks switch/type-switch cases on cloned states and joins
// the fall-out states of the cases that rejoin the main path.
func (a *funcAnalysis) caseClauses(body *ast.BlockStmt, st state) {
	states := []state{}
	hasDefault := false
	for _, cc := range body.List {
		clause := cc.(*ast.CaseClause)
		if clause.List == nil {
			hasDefault = true
		}
		ccSt := st.clone()
		a.block(clause.Body, ccSt)
		if !terminates(clause.Body) {
			states = append(states, ccSt)
		}
	}
	if !hasDefault {
		// No default: the switch may fall through untouched.
		states = append(states, st.clone())
	}
	if len(states) > 0 {
		replace(st, joined(states...))
	}
}

// returnResult discharges or flags payload/view mentions in a return
// value.
func (a *funcAnalysis) returnResult(res ast.Expr, st state) {
	ast.Inspect(res, func(nn ast.Node) bool {
		id, ok := nn.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := a.pass.ObjectOf(id).(*types.Var)
		if v == nil {
			return true
		}
		if p, ok := a.viewVars[v]; ok {
			switch {
			case st[p] == stReleased:
				a.reportf(id.Pos(), "view %s returned after its payload %s was Released", v.Name(), p.Name())
			case a.deferRel[p]:
				a.reportf(id.Pos(), "view %s is returned to the caller but a deferred Release reclaims its buffer on exit", v.Name())
			default:
				st[p] = stXfer // the caller holds the payload and the view
			}
			return true
		}
		if p := a.payloadVar(id); p != nil && st[p] != stReleased {
			st[p] = stXfer // payload itself handed to the caller
		}
		return true
	})
}

// finish reports every payload still holding an undischarged view.
func (a *funcAnalysis) finish(st state) {
	for p, s := range st {
		if s == stViewed && !a.deferRel[p] {
			a.reportf(a.viewPos[p], "a view of %s is taken here but the payload is not Released on every path: copy out what you need, then Release", p.Name())
		}
	}
}

// replace overwrites dst with src.
func replace(dst, src state) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// joined folds branch states: a view outstanding on any path stays
// outstanding; a payload released on only some paths is treated as
// transferred (neither a leak nor safely dead).
func joined(states ...state) state {
	out := state{}
	seen := map[*types.Var]int{}
	for _, st := range states {
		for v, s := range st {
			if seen[v] == 0 {
				out[v] = s
			} else {
				out[v] = join(out[v], s)
			}
			seen[v]++
		}
	}
	// A var absent from some branch was stLive there.
	for v, n := range seen {
		if n < len(states) {
			out[v] = join(out[v], stLive)
		}
	}
	return out
}

func join(x, y int) int {
	switch {
	case x == y:
		return x
	case x == stViewed || y == stViewed:
		return stViewed
	case x == stXfer || y == stXfer:
		return stXfer
	default: // released on one path, live on the other: give up tracking
		return stXfer
	}
}

// terminates reports whether a statement list always exits the
// enclosing branch.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
