// Fixture impersonating snet/internal/clock, the one time seam: it is
// outside the wallclock analyzer's scope, so its real-time bindings need
// no escape. Source stands in for clock.Clock.
package clock

import "time"

type Source struct{}

func (Source) Now() time.Time { return time.Now() }

func (Source) NewTimer(d time.Duration) *time.Timer { return time.NewTimer(d) }
