// Package codeclock enforces the PR-6 codec-ordering invariant on the
// wire transport: a link's dist.Codec negotiates its label table by
// emission order, so every encode (Codec.Marshal / AppendMarshal /
// MarshalBatch) and every raw connection write in snet/internal/wire must
// happen under the owning link's write mutex — otherwise two goroutines
// can interleave "negotiate label, write frame" sequences and
// desynchronize the peer's label table, corrupting every record that
// follows.
//
// The check is the codebase's own locking convention, made mechanical.
// A guarded call is legal when, in source order within the same function
// body, a `.wmu.Lock()` precedes it with no intervening non-deferred
// `.wmu.Unlock()` — or when the enclosing function's name ends in
// "Locked", the convention for helpers whose contract says "callers hold
// wmu". Function literals are independent scopes: a goroutine closure
// cannot inherit its creator's lock. Deliberate escapes (handshake
// writes on a connection no other goroutine can reach yet) carry a
// `//lint:reason`.
//
// This is a flow-insensitive approximation (a Lock in a dead branch
// counts), which is the standard lint trade-off: it accepts slightly too
// much, never silently — every real desync bug in the PR-6 family had no
// Lock in the function at all.
package codeclock

import (
	"go/ast"
	"sort"
	"strings"

	"snet/internal/analysis/framework"
)

// wirePath is the package this analyzer scopes itself to.
const wirePath = "snet/internal/wire"

// writeMutex is the field name the wire package uses for link write
// mutexes, on both the coordinator (peer.wmu) and worker (Worker.wmu)
// sides.
const writeMutex = "wmu"

// Analyzer is the codeclock pass.
var Analyzer = &framework.Analyzer{
	Name: "codeclock",
	Doc: "codec encodes and connection writes in the wire transport must hold the link write mutex, " +
		"so the codec's label negotiation order is pinned to the wire order",
	Run: run,
}

func run(pass *framework.Pass) error {
	if pass.Path != wirePath {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkScope(pass, fd.Name.Name, fd.Body)
			// Function literals nested anywhere in the declaration are
			// their own scopes (checkScope skips them when sweeping the
			// outer body).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkScope(pass, "", lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// event is one lock-relevant occurrence inside a function body, ordered
// by source position for the linear sweep.
type event struct {
	pos  int // file offset, for ordering
	kind int // 0 lock, 1 unlock, 2 guarded call
	node ast.Node
	desc string
}

// checkScope sweeps one function body (excluding nested function
// literals) in source order, tracking whether the write mutex is held.
func checkScope(pass *framework.Pass, funcName string, body *ast.BlockStmt) {
	lockedContext := strings.HasSuffix(funcName, "Locked")
	var events []event
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // independent scope
			case *ast.DeferStmt:
				walk(m.Call, true)
				return false
			case *ast.CallExpr:
				sel, ok := framework.Unparen(m.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch {
				case isMutexOp(sel, "Lock"):
					events = append(events, event{pos: int(m.Pos()), kind: 0, node: m})
				case isMutexOp(sel, "Unlock"):
					if !inDefer { // deferred unlock keeps the body locked
						events = append(events, event{pos: int(m.Pos()), kind: 1, node: m})
					}
				default:
					if desc, guarded := guardedCall(pass, sel); guarded {
						events = append(events, event{pos: int(m.Pos()), kind: 2, node: m, desc: desc})
					}
				}
			}
			return true
		})
	}
	walk(body, false)
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	locked := lockedContext
	for _, ev := range events {
		switch ev.kind {
		case 0:
			locked = true
		case 1:
			locked = false
		case 2:
			if locked || pass.Allowed(ev.node) {
				continue
			}
			pass.Reportf(ev.node.Pos(), "%s outside the link write mutex (%s): encode order must be "+
				"pinned to wire order or the peer's label table desynchronizes", ev.desc, writeMutex)
		}
	}
}

// isMutexOp matches `<expr>.wmu.Lock()` / `<expr>.wmu.Unlock()` (or a
// bare `wmu.Lock()`), syntactically.
func isMutexOp(sel *ast.SelectorExpr, op string) bool {
	if sel.Sel.Name != op {
		return false
	}
	switch x := framework.Unparen(sel.X).(type) {
	case *ast.Ident:
		return x.Name == writeMutex
	case *ast.SelectorExpr:
		return x.Sel.Name == writeMutex
	}
	return false
}

// guardedCall reports whether the selector call is one the invariant
// covers: a dist.Codec encode, or a net.Conn write.
func guardedCall(pass *framework.Pass, sel *ast.SelectorExpr) (string, bool) {
	name := sel.Sel.Name
	encode := name == "Marshal" || name == "AppendMarshal" || name == "MarshalBatch"
	if !encode && name != "Write" {
		return "", false
	}
	pkgPath, typeName, ok := pass.NamedRecv(sel)
	if !ok {
		return "", false
	}
	if encode && typeName == "Codec" && pkgPath == "snet/internal/dist" {
		return "dist.Codec." + name, true
	}
	if name == "Write" && typeName == "Conn" && pkgPath == "net" {
		return "net.Conn.Write", true
	}
	return "", false
}
