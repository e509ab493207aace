package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBreakerHalfOpenAdmitsOneProbe: once the cooldown lapses exactly
// one attempt is admitted as the probe and the rest fail fast until it
// resolves; success closes the breaker, failure reopens it for another
// cooldown, and a canceled probe hands the probe slot to the next
// attempt. A canceled attempt that predates the probe releases nothing.
func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	const cooldown = time.Second
	p := &peer{id: "b", threshold: 1, cooldown: cooldown}
	down := errors.New("connection refused")
	t0 := time.Unix(1000, 0)

	// admit begins an attempt that must be let through.
	admit := func(what string, now time.Time) bool {
		t.Helper()
		probe, err := p.begin(now)
		if err != nil {
			t.Fatalf("%s: refused: %v", what, err)
		}
		return probe
	}
	refuse := func(what string, now time.Time) {
		t.Helper()
		if _, err := p.begin(now); !errors.Is(err, errBreakerOpen) {
			t.Fatalf("%s: err %v, want errBreakerOpen", what, err)
		}
	}
	expectHealth := func(what, health string, inflight int) {
		t.Helper()
		if s := p.snapshot(); s.Health != health || s.Inflight != inflight {
			t.Fatalf("%s: health %q with %d in flight, want %q with %d", what, s.Health, s.Inflight, health, inflight)
		}
	}
	// expectProbe checks that the first attempt at now is admitted as the
	// probe and every following one is refused while it is outstanding.
	expectProbe := func(what string, now time.Time, inflight int) {
		t.Helper()
		if !admit(what, now) {
			t.Fatalf("%s: first attempt after cooldown is not the probe", what)
		}
		for i := 0; i < 4; i++ {
			refuse(what+": attempt behind the probe", now)
		}
		expectHealth(what, "half-open", inflight)
	}

	// One transport failure at threshold 1 opens the breaker.
	admit("closed", t0)
	p.done(false, down, false, t0)
	refuse("inside cooldown", t0.Add(cooldown/2))

	// A successful probe closes it; closed admits concurrent attempts.
	t1 := t0.Add(cooldown)
	expectProbe("first cooldown", t1, 1)
	p.done(true, nil, false, t1)
	for i := 0; i < 3; i++ {
		if admit("closed", t1) {
			t.Fatal("closed breaker handed out a probe")
		}
	}
	for i := 0; i < 3; i++ {
		p.done(false, nil, false, t1)
	}
	expectHealth("after probe success", "ok", 0)

	// A failed probe reopens it and restarts the cooldown.
	admit("closed", t1)
	p.done(false, down, false, t1)
	t2 := t1.Add(cooldown)
	expectProbe("second cooldown", t2, 1)
	p.done(true, down, false, t2)
	expectHealth("after probe failure", "open", 0)
	refuse("failed probe restarts the cooldown", t2.Add(cooldown/2))

	// A probe canceled by its own client resolves nothing: the breaker
	// stays open with its cooldown already spent, so the next attempt
	// becomes the new probe.
	t3 := t2.Add(cooldown)
	expectProbe("third cooldown", t3, 1)
	p.done(true, context.Canceled, true, t3)
	expectHealth("after canceled probe", "open", 0)
	expectProbe("after canceled probe", t3, 1)
	p.done(true, nil, false, t3)
	expectHealth("after second probe success", "ok", 0)

	// An attempt that began while the breaker was closed and is canceled
	// while a probe is out leaves that probe the only one.
	admit("closed, long-running", t3)
	admit("closed", t3)
	p.done(false, down, false, t3)
	t4 := t3.Add(cooldown)
	expectProbe("fourth cooldown", t4, 2)
	p.done(false, context.Canceled, true, t4)
	expectHealth("after a stale cancel", "half-open", 1)
	refuse("behind the probe after a stale cancel", t4)
}
