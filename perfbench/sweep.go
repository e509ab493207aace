package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"fvp"
	"fvp/internal/ooo"
)

// Seed streams: each thing a seed picks draws from its own stream, so
// adding a draw to one workload never shifts another's.
const (
	streamDetail uint64 = iota + 1
	streamSampled
	streamSampleSeed
)

func runDetailSweep(ctx context.Context, cfg config, r *report) error {
	apps := draw(r, cfg.seed, streamDetail, detailPool, perCat(4, cfg.small))
	return runSweep(ctx, cfg, r, pool(detailPool), detailPoints(apps, cfg.small))
}

func runSampledSweep(ctx context.Context, cfg config, r *report) error {
	apps := draw(r, cfg.seed, streamSampled, sampledPool, perCat(3, cfg.small))
	sampleSeed := newRNG(cfg.seed, streamSampleSeed).next() % 1000
	r.logf("sample seed %d (systematic phase of every point's units)", sampleSeed)
	return runSweep(ctx, cfg, r, pool(sampledPool), sampledPoints(apps, sampleSeed, cfg.small))
}

// perCat is how many applications per category a workload draws: n, or
// one in the smoke test's small mode.
func perCat(n int, small bool) int {
	if small {
		return 1
	}
	return n
}

// sweepSetups is how many times set-up is repeated; setup_s is the median.
const sweepSetups = 25

// sweepSetup is the work a sweep does before its first simulated cycle:
// build the program and initial memory image of every application the
// workload can draw (the same list whatever the seed, so set-up time does
// not depend on the draw), and construct one Skylake core over the first.
func sweepSetup(apps []string) error {
	var first *ooo.Core
	for _, a := range apps {
		ex, mem, err := fvp.BuildWorkloadSource(a)
		if err != nil {
			return err
		}
		if first == nil {
			first = ooo.New(ooo.Skylake(), nil, ex, mem)
		}
	}
	return nil
}

// withoutWallTime returns m without its one wall-clock field, for equality
// checks between runs of the same spec.
func withoutWallTime(m fvp.Metrics) fvp.Metrics {
	m.FFInstsPerSec = 0
	return m
}

func metricsJSON(m fvp.Metrics) string {
	b, _ := json.Marshal(withoutWallTime(m)) // plain struct: cannot fail
	return string(b)
}

// simDigest hashes the simulated machine's statistics of every result,
// in order. Two trees that print the same digest for a seed simulated
// identically. The idle-cycle elision meters (skipped cycles and jumps)
// are left out: they describe how the simulator got there, which a
// simulator-speed change may alter without changing any simulated
// statistic.
func simDigest(ms []fvp.Metrics) string {
	h := sha256.New()
	for _, m := range ms {
		m.SkippedCycles, m.SkipEvents = 0, 0
		h.Write([]byte(metricsJSON(m)))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runSweep measures a list of points: set-up over the candidate
// applications, then either the timed loop or the traced run. The first
// result of every point is its reference, which every later run of the
// same point must equal.
func runSweep(ctx context.Context, cfg config, r *report, candidates []string, pts []fvp.RunSpec) error {
	setup, err := timeMedian(sweepSetups, func() error { return sweepSetup(candidates) })
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if cfg.trace {
		refs := make([]fvp.Metrics, len(pts))
		for i, p := range pts {
			if refs[i], err = fvp.RunContext(ctx, p); err != nil {
				return fmt.Errorf("reference run %s: %w", specLabel(p), err)
			}
		}
		r.logf("sim_digest %s over %d points", simDigest(refs), len(pts))
		return traceSweep(ctx, r, pts, refs)
	}
	r.set("setup_s", setup, "s", sweepSetups)

	// Rates are taken per pass over all points, so every stretch has the
	// same mix of applications. The first pass, which sets the references,
	// is timed like the others.
	var (
		refs              = make([]fvp.Metrics, len(pts))
		points            int
		passes            []stretch
		cur               stretch
		attempted, failed int64
		mismatches        int

		deadline  = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		start     = time.Now()
		passStart = start
	)
	for i := 0; i < len(pts) || time.Now().Before(deadline); i++ {
		k := i % len(pts)
		p := pts[k]
		m, err := fvp.RunContext(ctx, p)
		attempted++
		switch {
		case err != nil && i < len(pts):
			return fmt.Errorf("first run of %s: %w", specLabel(p), err)
		case err != nil:
			failed++
			r.logf("run %s failed: %v", specLabel(p), err)
		default:
			if i < len(pts) {
				refs[k] = m
			} else if metricsJSON(m) != metricsJSON(refs[k]) {
				mismatches++
				r.fail("repeat of %s differs from its first run", specLabel(p))
			}
			points++
			cur.sims += float64(simInsts(p, m))
			cur.regions += float64(p.MeasureInsts)
		}
		if k == len(pts)-1 {
			cur.secs = time.Since(passStart).Seconds()
			passes = append(passes, cur)
			cur, passStart = stretch{}, time.Now()
		}
	}
	wall := time.Since(start).Seconds()
	r.logf("sim_digest %s over %d points", simDigest(refs), len(pts))
	r.res.Attempted, r.res.Failed = attempted, failed
	r.logf("timed phase %.3f s, %d points (%d whole passes of %d), %d mismatches", wall, points, len(passes), len(pts), mismatches)
	reportRates(r, passes)
	r.setLiveHeap()
	return nil
}
