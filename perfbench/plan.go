package main

import (
	"fmt"
	"math"

	"fvp"
)

// rng is splitmix64: the seed is the whole state, so a seed names its
// inputs exactly on any host.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// app is a candidate application and the CPU time one point of it
// costs (ms; 2-CPU x86-64 host, mean of three sample seeds, at this
// tree's point sizes).
type app struct {
	name string
	cost float64
}

// catPool is one Table-III category's candidates.
type catPool struct {
	category string
	apps     []app
}

var detailPool = []catPool{
	{"ISPEC06", []app{{"xalancbmk", 181}, {"sjeng", 183}, {"mcf", 184}, {"astar", 193}, {"h264ref", 196}, {"gcc", 201}, {"hmmer", 207}, {"perlbench", 212}, {"omnetpp", 226}, {"gobmk", 233}, {"bzip2", 267}, {"libquantum", 282}}},
	{"FSPEC06", []app{{"sphinx3", 160}, {"namd", 172}, {"dealII", 186}, {"soplex", 203}, {"gamess", 207}, {"tonto", 208}, {"povray", 233}, {"calculix", 233}, {"gromacs", 245}, {"milc", 247}, {"wrf", 260}, {"gemsfdtd", 264}, {"bwaves", 271}, {"cactusADM", 274}, {"zeusmp", 286}, {"leslie3d", 302}}},
	{"SPEC17", []app{{"cam4", 148}, {"exchange2", 167}, {"nab", 179}, {"perlbench-17", 211}, {"leela", 214}, {"gcc-17", 219}, {"xalanc-17", 223}, {"omnetpp-17", 223}, {"xz", 240}, {"fotonik3d", 241}, {"mcf-17", 247}, {"pop2", 249}, {"bwaves-17", 280}, {"roms", 290}, {"cactuBSSN", 296}, {"lbm", 355}}},
	{"Server", []app{{"spark", 140}, {"cassandra", 158}, {"tpce", 162}, {"hadoop", 162}, {"cassandra-write", 168}, {"specpower-ssj2", 172}, {"spark-sql", 172}, {"specjenterprise", 177}, {"hadoop-sort", 178}, {"specjbb", 180}, {"specjent-web", 182}, {"specpower", 185}, {"specjbb-crit", 196}, {"lammps", 200}, {"tpce-mix", 231}, {"hplinpack", 339}}},
}

// sampledPool leaves out lbm and hplinpack: one sampled point of either
// costs twice a typical one and would set a run's tail latency by itself.
var sampledPool = []catPool{
	{"ISPEC06", []app{{"omnetpp", 594}, {"astar", 620}, {"gcc", 655}, {"hmmer", 676}, {"h264ref", 679}, {"xalancbmk", 683}, {"perlbench", 754}, {"gobmk", 797}, {"sjeng", 802}, {"mcf", 963}, {"bzip2", 982}, {"libquantum", 1161}}},
	{"FSPEC06", []app{{"sphinx3", 601}, {"dealII", 601}, {"gamess", 616}, {"namd", 628}, {"povray", 699}, {"soplex", 741}, {"tonto", 786}, {"calculix", 862}, {"wrf", 904}, {"gromacs", 913}, {"milc", 947}, {"cactusADM", 962}, {"zeusmp", 964}, {"leslie3d", 982}, {"gemsfdtd", 1080}, {"bwaves", 1309}}},
	{"SPEC17", []app{{"cam4", 647}, {"perlbench-17", 849}, {"nab", 858}, {"exchange2", 880}, {"leela", 938}, {"gcc-17", 947}, {"pop2", 950}, {"mcf-17", 983}, {"fotonik3d", 991}, {"omnetpp-17", 995}, {"xalanc-17", 1001}, {"xz", 1007}, {"cactuBSSN", 1054}, {"roms", 1198}, {"bwaves-17", 1296}}},
	{"Server", []app{{"specjent-web", 630}, {"specjenterprise", 667}, {"tpce", 670}, {"cassandra", 674}, {"specjbb-crit", 683}, {"spark", 689}, {"cassandra-write", 705}, {"spark-sql", 750}, {"lammps", 767}, {"hadoop", 774}, {"specjbb", 780}, {"specpower", 791}, {"tpce-mix", 813}, {"specpower-ssj2", 821}, {"hadoop-sort", 845}}},
}

// dramBound are the SPEC17 kernels on which idle-cycle elision skips
// most cycles; every draw includes one. Share of measured-region cycles
// skipped at the detail-sweep point size (Skylake, 50k+100k, baseline and
// FVP alike): mcf-17 0.92, perlbench-17 0.80. The next SPEC17 kernels
// skip 0.69 (bwaves-17) and 0.60 (roms, lbm).
var dramBound = map[string]bool{"mcf-17": true, "perlbench-17": true}

// drawTolerance is how far a draw's predicted cost may sit from the
// pool's expected cost.
const drawTolerance = 0.02

// draw picks perCat applications from each category, always including a
// DRAM-bound SPEC17 kernel. Different seeds draw different applications,
// but a draw is accepted only when its predicted CPU cost is within
// drawTolerance of the pool's expected cost (redrawing from the same
// seed otherwise), so a seed-to-seed change in a rate is the simulator's,
// not the draw's. Each chosen application and the reason is logged.
func draw(r *report, seed, stream uint64, pools []catPool, perCat int) []string {
	var target float64
	for _, p := range pools {
		var sum float64
		for _, a := range p.apps {
			sum += a.cost
		}
		target += float64(perCat) * sum / float64(len(p.apps))
	}
	g := newRNG(seed, stream)
	var best []app
	bestErr := 2.0
	for try := 0; try < 10_000 && bestErr > drawTolerance; try++ {
		var set []app
		var total float64
		dram := false
		for _, p := range pools {
			cand := append([]app(nil), p.apps...)
			for i := 0; i < perCat; i++ {
				j := i + g.intn(len(cand)-i)
				cand[i], cand[j] = cand[j], cand[i]
				set = append(set, cand[i])
				total += cand[i].cost
				dram = dram || dramBound[cand[i].name]
			}
		}
		if err := math.Abs(total-target) / target; dram && err < bestErr {
			best, bestErr = set, err
		}
	}
	apps := make([]string, len(best))
	for i, a := range best {
		apps[i] = a.name
		why := ""
		if dramBound[a.name] {
			why = "; DRAM-bound, so idle-cycle elision runs"
		}
		r.logf("app %-16s drawn by seed %d, %s, about %.0f ms CPU for its points%s", a.name, seed, pools[i/perCat].category, a.cost, why)
	}
	r.logf("the draw's predicted cost is within %.1f%% of the pool's expected cost", bestErr*100)
	return apps
}

// pool lists every application of a pool.
func pool(pools []catPool) []string {
	var apps []string
	for _, p := range pools {
		for _, a := range p.apps {
			apps = append(apps, a.name)
		}
	}
	return apps
}

// Point sizes. A detail point is the default harness shape shrunk so a
// pass over 16 applications takes about two seconds.
const (
	detailWarmup  = 50_000
	detailMeasure = 100_000

	// Sampled points start their region after sampledWarmup so no unit's
	// 200k-instruction functional warmup is clamped at the stream start;
	// every unit then runs a detailed tail of exactly sampledTail.
	sampledWarmup = 200_000
	sampledRegion = 2_000_000
	sampledUnits  = 16
	sampledTail   = 2048
	// sampledWorkers is 1: on a 2-CPU host, sim_mips over six seeds
	// (20 s runs) spread 24% (quartile distance over median) with 2 region
	// workers and 10% with 1.
	sampledWorkers = 1
)

// detailPoints pairs each application's baseline with FVP on Skylake.
func detailPoints(apps []string, small bool) []fvp.RunSpec {
	warm, measure := uint64(detailWarmup), uint64(detailMeasure)
	if small {
		warm, measure = 2_000, 5_000
	}
	var pts []fvp.RunSpec
	for _, a := range apps {
		for _, p := range []fvp.Predictor{fvp.PredNone, fvp.PredFVP} {
			pts = append(pts, fvp.RunSpec{
				Workload: a, Machine: fvp.Skylake, Predictor: p,
				WarmupInsts: warm, MeasureInsts: measure,
			})
		}
	}
	return pts
}

// sampledPoints builds one FVP sampled estimate per application.
func sampledPoints(apps []string, sampleSeed uint64, small bool) []fvp.RunSpec {
	warm, region, unitWarm := uint64(sampledWarmup), uint64(sampledRegion), uint64(0)
	units := sampledUnits
	if small {
		warm, region, unitWarm, units = 16_384, 40_000, 16_384, 4
	}
	var pts []fvp.RunSpec
	for _, a := range apps {
		pts = append(pts, fvp.RunSpec{
			Workload: a, Machine: fvp.Skylake, Predictor: fvp.PredFVP,
			WarmupInsts: warm, MeasureInsts: region,
			SampleUnits: units, SampleWarmupInsts: unitWarm, SampleSeed: sampleSeed,
			RegionWorkers: sampledWorkers,
		})
	}
	return pts
}

// simInsts is the number of instructions the simulator advanced for a
// point, detailed plus fast-forwarded: a full-detail point retires its
// warmup and measured region; a sampled point adds the checkpoint scan
// and unit warmups (FFInsts) to its units and their detailed tails.
func simInsts(spec fvp.RunSpec, m fvp.Metrics) uint64 {
	if m.Sampling == nil {
		return spec.WarmupInsts + m.Insts + m.FFInsts
	}
	tail := m.Sampling.WarmupInsts / 8
	if tail > sampledTail {
		tail = sampledTail
	}
	return m.FFInsts + m.Sampling.SampledInsts + uint64(m.Sampling.Units)*tail
}

// specLabel is a short human-readable name for a spec.
func specLabel(s fvp.RunSpec) string {
	return fmt.Sprintf("%s/%s/%d+%d", s.Workload, s.Predictor, s.WarmupInsts, s.MeasureInsts)
}
