package core

import (
	"snet/internal/record"
	"snet/internal/stream"
)

// stage is one step of a stage chain: a filter rule set or a box, with the
// entity it came from kept for error attribution.
type stage struct {
	ent   *Entity
	rules []compiledRule // rule-set stage (box == nil)
	box   *boxImpl       // box stage
}

// setStages makes e a stage chain: a box or filter is a chain of one stage,
// the optimizer's fusions are longer chains. The stage list is also the
// optimizer's marker that e can be fused with its neighbours.
func (e *Entity) setStages(stages []stage) {
	e.stages = stages
	e.spawn = func(env *Env, in, out *stream.Link) {
		env.start(func() { runStages(env, stages, in, out) })
	}
}

// frontInline is how many records the in-memory front between stages
// holds before it spills to the heap: most stages emit a handful of
// records per input.
const frontInline = 4

// runStages is the one loop that runs boxes and filters: it threads each
// input record through the stage list in memory, emitting the final
// stage's outputs downstream in the order a pipeline of one goroutine per
// stage would produce. Control records pass straight through, FIFO with
// the data. It closes out when in is exhausted or the instance stops.
func runStages(env *Env, stages []stage, in, out *stream.Link) {
	defer env.closeLink(out)
	// One call context serves every box stage (boxes are sequential per
	// instance); filter-only chains need none.
	var call *BoxCall
	for i := range stages {
		if stages[i].box != nil {
			call = newBoxCall(env)
			break
		}
	}
	// cur/next are the record front between stages, reused across inputs
	// and kept on the goroutine's stack until a stage emits more than
	// frontInline records.
	var curArr, nextArr [frontInline]*record.Record
	cur, next := curArr[:0], nextArr[:0]
	last := len(stages) - 1
	for {
		r, ok := env.recv(in)
		if !ok {
			return
		}
		if !r.IsData() {
			if !env.send(out, r) {
				return
			}
			continue
		}
		cur = append(cur[:0], r)
		for si := range stages {
			s := &stages[si]
			next = next[:0]
			if s.box == nil {
				for _, rec := range cur {
					next = runRules(env, s.ent, s.rules, rec, next)
				}
				cur, next = next, cur
				continue
			}
			for _, rec := range cur {
				matched, ok, dead := s.box.attempt(call, rec)
				if !ok {
					// Stopped mid-chain: unwind; in-flight records are
					// dropped like any stopped instance's.
					return
				}
				if !matched || dead {
					// Dropped (no match) or dead-lettered: nothing pending,
					// the record is no longer ours.
					continue
				}
				if si == last {
					// The last stage flushes straight from the call's
					// buffer, outside the platform slot: downstream
					// backpressure must not hold a node CPU.
					if !env.sendMany(out, call.pending) {
						return
					}
				} else {
					next = append(next, call.pending...)
				}
				// The box consumed its input, so rec is dead — unless the
				// body emitted the input record itself.
				if !finishCall(call, rec) {
					recycle(rec)
				}
			}
			cur, next = next, cur
		}
		if len(cur) > 0 && !env.sendMany(out, cur) {
			return
		}
		// Drop the references to delivered records so the front does not
		// keep them alive; next holds only consumed inputs, which are
		// recycled, dead-lettered or re-emitted.
		clear(cur)
	}
}
