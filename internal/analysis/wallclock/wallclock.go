// Package wallclock enforces the runtime's testability invariant on the
// transport, durability and retry code: production code in
// snet/internal/wire, snet/internal/stream, snet/internal/journal and
// snet/internal/core must not read the wall clock or create timers
// directly — all time flows through internal/clock, the one time seam,
// which is what lets the fault detectors (heartbeat sweep, liveness
// timeout, call deadlines, quarantine cool-down), the journal's
// batched-fsync interval and box-retry backoff be driven by a clock.Fake
// in deterministic tests instead of by sleeping.
//
// Banned in those packages: time.Now, time.Sleep, time.Since, time.Until,
// time.After, time.AfterFunc, time.NewTimer, time.NewTicker, time.Tick —
// whether called or referenced as a value. The one deliberate exception,
// carrying a `//lint:reason`, is net.Conn deadline arithmetic: the kernel
// compares deadlines against real time, so a synthetic cluster clock must
// not shift them.
package wallclock

import (
	"go/ast"
	"go/types"

	"snet/internal/analysis/framework"
)

// packages is the analyzer's scope: production code whose timing
// decisions must be drivable by synthetic time.
var packages = map[string]bool{
	"snet/internal/wire":    true,
	"snet/internal/stream":  true,
	"snet/internal/journal": true,
	"snet/internal/core":    true,
}

// banned is the set of time-package functions that read the wall clock or
// bind a wait to it.
var banned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
}

// Analyzer is the wallclock pass.
var Analyzer = &framework.Analyzer{
	Name: "wallclock",
	Doc: "runtime code must route all time through internal/clock, the one time seam, " +
		"so fault detectors, fsync batching and retry backoff stay deterministically testable",
	Run: run,
}

func run(pass *framework.Pass) error {
	if !packages[pass.Path] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.Info.Uses[sel.Sel]
			if !ok {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !banned[fn.Name()] {
				return true
			}
			// Methods share names with the banned package functions
			// (time.Time.After, time.Time.Since via embedding, ...): only
			// package-level functions read the wall clock.
			if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
				return true
			}
			if pass.Allowed(sel) {
				return true
			}
			pass.Reportf(sel.Pos(), "direct time.%s in %s: route through internal/clock "+
				"(a clock.Clock) so timing decisions stay deterministically testable",
				fn.Name(), pass.Path)
			return true
		})
	}
	return nil
}
