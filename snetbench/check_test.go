package main

import (
	"testing"

	"snet"
)

// The runner's checks must catch a wrong answer: with the expectation
// corrupted for some records, those records count as wrong and the run as
// failed.
func TestCorruptedExpectationIsCaught(t *testing.T) {
	res := newResult()
	a := &streamApp{gen: newStreamGen(7), res: res}
	a.chk = &checker{gen: a.gen, expect: func(in input) int {
		if in.k == a.gen.keys[0] {
			return expected(in) + 1
		}
		return expected(in)
	}}
	_, inst, _, err := a.setup(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.pump(inst, 2000); err != nil {
		t.Fatal(err)
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
	if a.chk.wrong == 0 || a.chk.wrong == 2000 {
		t.Fatalf("corrupted expectation flagged %d of 2000 outputs, want some but not all", a.chk.wrong)
	}
	if a.chk.dup != 0 || a.chk.missing(0, 2000) != 0 {
		t.Fatalf("dup %d, missing %d: want none", a.chk.dup, a.chk.missing(0, 2000))
	}
}

// A duplicate and a lost record are both counted.
func TestDuplicateAndLossAreCaught(t *testing.T) {
	g := newStreamGen(3)
	c := &checker{gen: g, expect: expected}
	out := func(seq int) {
		c.check(snet.NewRecord().SetFieldSym(symX, expected(g.at(seq))).SetTagSym(symSeq, seq))
	}
	out(0)
	out(0)
	out(2)
	if c.dup != 1 || c.wrong != 0 || c.missing(0, 3) != 1 {
		t.Fatalf("dup %d wrong %d missing %d, want 1 0 1", c.dup, c.wrong, c.missing(0, 3))
	}
}

// A render whose image differs from the sequential reference by one byte
// counts as a bad image.
func TestCorruptedReferenceImageIsCaught(t *testing.T) {
	res := newResult()
	a := newRenderApp(1, nil, res)
	a.ref.Pix[len(a.ref.Pix)/2] ^= 0xff
	f, err := a.startFleet()
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	a.render(f.cl, 0)
	if res.badImages != 1 || res.failed() != 1 {
		t.Fatalf("bad images %d, failed %d: want 1, 1", res.badImages, res.failed())
	}
}
