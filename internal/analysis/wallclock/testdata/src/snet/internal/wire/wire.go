// Fixture impersonating snet/internal/wire for the wallclock analyzer:
// no direct wall-clock reads or timer construction; time comes from the
// injected clock.Source.
package wire

import (
	"time"

	"snet/internal/clock"
)

func stamp(c clock.Source) time.Time { return c.Now() }

func bad() {
	_ = time.Now()                  // want "direct time.Now"
	time.Sleep(time.Millisecond)    // want "direct time.Sleep"
	_ = time.Since(time.Time{})     // want "direct time.Since"
	t := time.NewTimer(time.Second) // want "direct time.NewTimer"
	_ = t
	k := time.NewTicker(time.Second) // want "direct time.NewTicker"
	_ = k
}

func badValueRef() {
	now := time.Now // want "direct time.Now"
	_ = now
}

func methodsAreFine(a, b time.Time) bool {
	return a.After(b) // time.Time.After is a method, not a wall-clock read
}

func allowlistedDeadline() (time.Time, time.Time) {
	a := time.Now() //lint:reason conn deadlines are compared against real time by the kernel
	//lint:reason conn deadlines are compared against real time by the kernel
	b := time.Now()
	return a, b
}
