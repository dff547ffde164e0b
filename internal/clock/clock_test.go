package clock_test

import (
	"testing"
	"time"

	"snet/internal/clock"
)

var start = time.Unix(1_000_000, 0)

func fired(c <-chan time.Time) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

func TestFakeTimerFiresWhenAdvancePassesDeadline(t *testing.T) {
	f := clock.NewFake(start)
	c := f.Clock()
	tm := c.NewTimer(10 * time.Second)
	if d, ok := f.Next(); !ok || d != 10*time.Second {
		t.Fatalf("Next = %v,%v, want 10s,true", d, ok)
	}
	f.Advance(9 * time.Second)
	if fired(tm.C) {
		t.Fatal("timer fired before its deadline")
	}
	if now := f.Advance(time.Second); !now.Equal(start.Add(10*time.Second)) || !c.Now().Equal(now) {
		t.Fatalf("Advance returned %v, Now %v", now, c.Now())
	}
	if !fired(tm.C) {
		t.Fatal("timer did not fire at its deadline")
	}
	if tm.Stop() {
		t.Fatal("Stop after the fire reported a preempted timer")
	}
	if _, ok := f.Next(); ok {
		t.Fatal("a fired timer is still armed")
	}
	if got := c.Since(start); got != 10*time.Second {
		t.Fatalf("Since = %v", got)
	}
}

func TestFakeTimerStop(t *testing.T) {
	f := clock.NewFake(start)
	tm := f.Clock().NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop of an armed timer reported no preemption")
	}
	f.Advance(time.Hour)
	if fired(tm.C) {
		t.Fatal("stopped timer fired")
	}
}

func TestFakeTickerDropsMissedTicks(t *testing.T) {
	f := clock.NewFake(start)
	tk := f.Clock().NewTicker(time.Second)
	f.Advance(5 * time.Second)
	if !fired(tk.C) || fired(tk.C) {
		t.Fatal("one Advance over five intervals must deliver exactly one tick")
	}
	if d, _ := f.Next(); d != time.Second {
		t.Fatalf("next tick in %v, want 1s", d)
	}
	f.Advance(time.Second)
	if !fired(tk.C) {
		t.Fatal("ticker did not re-arm")
	}
	tk.Stop()
	f.Advance(time.Hour)
	if fired(tk.C) {
		t.Fatal("stopped ticker ticked")
	}
}

func TestFakeAfterFuncRunsInsideAdvance(t *testing.T) {
	f := clock.NewFake(start)
	ran := 0
	f.Clock().AfterFunc(time.Minute, func() { ran++ })
	stopped := f.Clock().AfterFunc(time.Minute, func() { t.Error("stopped AfterFunc ran") })
	stopped.Stop()
	f.Advance(time.Minute)
	f.Advance(time.Minute)
	if ran != 1 {
		t.Fatalf("AfterFunc ran %d times, want 1", ran)
	}
}

func TestZeroClockIsRealTime(t *testing.T) {
	var c clock.Clock
	before := time.Now()
	if now := c.Now(); now.Before(before) {
		t.Fatalf("zero Clock read %v before %v", now, before)
	}
	tm := c.NewTimer(time.Millisecond)
	<-tm.C
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	<-done
	tk := c.NewTicker(time.Millisecond)
	<-tk.C
	tk.Stop()
}
