package core

import (
	"testing"

	"snet/internal/record"
	"snet/internal/rtype"
	"snet/internal/stream"
)

// allocShapes are the stage-chain shapes the allocation bounds pin: a
// standalone box, a standalone filter, and the optimizer's fused
// filter..box chain. Every body draws its outputs from the record pool, so
// the counts are the runtime's own, not the workload's.
func allocShapes() (box, filter, fused *Entity) {
	x := record.Intern("x")
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	box = NewBox("allocbox", sig, func(c *BoxCall) error {
		c.Emit(c.NewRecord().SetFieldSym(x, c.FieldSym(x)))
		return nil
	})
	filter = NewFilter("allocfilter", FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("x"))),
		Outputs: []FilterOutput{{CopyFields: []string{"x"}}},
	})
	fused, _ = Optimize(Serial(filter, box))
	return box, filter, fused
}

// allocLinkConfig is the stream configuration NewNetwork would give the
// links (default buffer and batch sizes).
var allocLinkConfig = stream.Config{Capacity: DefaultBufferSize}

// instantiateOnce spawns e into a fresh link pair, sends one record,
// closes the input and drains the output: one instantiation's whole life.
func instantiateOnce(env *Env, e *Entity, x record.Sym) {
	in, out := stream.NewLink(allocLinkConfig), stream.NewLink(allocLinkConfig)
	e.spawn(env, in, out)
	in.Send(recordPool.Get().SetFieldSym(x, 1), env.done)
	env.closeLink(in)
	for {
		r, ok := out.Recv(env.done)
		if !ok {
			return
		}
		recycle(r)
	}
}

// TestStageChainInstantiationAllocs pins the allocations of one
// instantiation of each stage-chain shape — star unfoldings re-instantiate
// their operand per record wave, so this is a per-record cost there. The
// bounds are the counts measured when boxes and filters still had their
// own per-record loops (the identity relay is the floor: goroutine, two
// links, the record's batch); a one-stage chain must not cost more.
func TestStageChainInstantiationAllocs(t *testing.T) {
	skipIfRace(t)
	box, filter, fused := allocShapes()
	x := record.Intern("x")
	for _, tc := range []struct {
		name string
		e    *Entity
		max  float64
	}{
		{"identity", Identity(), 8},
		{"box", box, 10},
		{"filter", filter, 8},
		{"fused", fused, 14},
	} {
		env := newEnv(Options{BufferSize: DefaultBufferSize})
		n := testing.AllocsPerRun(200, func() { instantiateOnce(env, tc.e, x) })
		close(env.done)
		env.wg.Wait()
		t.Logf("%s: %.0f allocs per instantiation", tc.name, n)
		if n > tc.max {
			t.Errorf("%s: %.0f allocs per instantiation, want <= %.0f", tc.name, n, tc.max)
		}
	}
}

// TestStageChainRecordAllocs pins the steady-state allocations per record
// of a long-lived one-stage box chain and one-stage filter chain: one
// record in, one record out, through links that stay open.
func TestStageChainRecordAllocs(t *testing.T) {
	skipIfRace(t)
	box, filter, _ := allocShapes()
	x := record.Intern("x")
	for _, tc := range []struct {
		name string
		e    *Entity
		max  float64
	}{
		{"box", box, 0},
		{"filter", filter, 0},
	} {
		env := newEnv(Options{BufferSize: DefaultBufferSize})
		in, out := stream.NewLink(allocLinkConfig), stream.NewLink(allocLinkConfig)
		tc.e.spawn(env, in, out)
		n := testing.AllocsPerRun(1000, func() {
			in.Send(recordPool.Get().SetFieldSym(x, 1), env.done)
			r, ok := out.Recv(env.done)
			if !ok {
				t.Fatal("stage chain closed its output early")
			}
			recycle(r)
		})
		env.closeLink(in)
		for {
			if _, ok := out.Recv(env.done); !ok {
				break
			}
		}
		env.wg.Wait()
		t.Logf("%s: %.1f allocs per record", tc.name, n)
		if n > tc.max {
			t.Errorf("%s: %.1f allocs per record, want <= %.1f", tc.name, n, tc.max)
		}
	}
}
