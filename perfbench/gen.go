package main

import (
	"math"
	"math/rand"
	"strings"

	"xtenergy/internal/core"
	"xtenergy/internal/experiments"
	"xtenergy/internal/isa"
	"xtenergy/internal/procgen"
	"xtenergy/internal/randprog"
	"xtenergy/internal/xpowerd"
)

// Every input a run uses is generated here from --seed, so a seed names
// one fixed set of operations. Each round is generated just before it
// runs, so the inputs of the whole run never sit on the heap the
// measured code's garbage collector has to mark.

// roundRNG is the generator of one round's inputs; rounds draw from
// their own streams.
func roundRNG(seed int64, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
}

// freshSource draws one randprog program (loops allowed, 16 to 160
// blocks, log-uniform, so lengths span 10x) and renders it as XT32
// source: isa.Disassemble with the "index:" prefixes stripped.
func freshSource(rng *rand.Rand) string {
	blocks := int(16 * math.Pow(10, rng.Float64()))
	prog := randprog.Generate(rng.Int63(), randprog.Options{Blocks: blocks, AllowLoops: true})
	var b strings.Builder
	for _, line := range strings.Split(isa.Disassemble(prog.Code), "\n") {
		if _, instr, ok := strings.Cut(line, ":"); ok {
			b.WriteString(strings.TrimSpace(instr))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// configs are the two base configurations explore prices every
// candidate on.
func configs() []procgen.Config {
	return []procgen.Config{procgen.Default(), experiments.AltConfig()}
}

// candidate is one explore operation: a workload priced on a
// configuration.
type candidate struct {
	Config string `json:"config"`
	Name   string `json:"name"`
	// Source is set for fresh programs only; registry workloads are
	// named.
	Source string `json:"source,omitempty"`

	cfg procgen.Config
	w   core.Workload
}

func (c *candidate) fresh() bool { return c.Source != "" }

// freshPerRound is the number of fresh randprog candidates mixed into
// each explore round beside the 120 registry candidates.
const freshPerRound = 40

// exploreRound returns round r: every registry workload on both
// configurations plus freshPerRound fresh programs, shuffled.
func exploreRound(seed int64, r int, registry []core.Workload) []candidate {
	rng := roundRNG(seed, r)
	cfgs := configs()
	var out []candidate
	for _, cfg := range cfgs {
		for _, w := range registry {
			out = append(out, candidate{Config: cfg.Name, Name: w.Name, cfg: cfg, w: w})
		}
	}
	for i := 0; i < freshPerRound; i++ {
		cfg := cfgs[rng.Intn(len(cfgs))]
		src := freshSource(rng)
		w := core.Workload{Name: "fresh", Source: src}
		out = append(out, candidate{Config: cfg.Name, Name: w.Name, Source: src, cfg: cfg, w: w})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// registryRequests is every registry estimate, simulate and lint
// request; daemon set-up sends each once. Estimates use the fast
// reference technology (`xpower -fast`) to keep set-up short: a repeat
// is a memo read either way.
func registryRequests(names []string) []xpowerd.Request {
	var out []xpowerd.Request
	for _, n := range names {
		out = append(out,
			xpowerd.Request{Op: xpowerd.OpEstimate, Workload: n, Fast: true},
			xpowerd.Request{Op: xpowerd.OpSimulate, Workload: n},
			xpowerd.Request{Op: xpowerd.OpLint, Workload: n})
	}
	return out
}

// dreq is one daemon operation.
type dreq struct {
	Req xpowerd.Request `json:"req"`
	// Reg indexes registryRequests for a repeat; -1 marks a fresh
	// inline request.
	Reg int `json:"reg"`
}

// Per daemon round: repeats of registry requests (memo reads) and fresh
// inline programs (misses and CAS writes), 90/10.
const (
	daemonRepeats = 90
	daemonFresh   = 10
)

// daemonRound returns round r of the daemon request list. reg is
// registryRequests.
func daemonRound(seed int64, r int, reg []xpowerd.Request) []dreq {
	rng := roundRNG(seed, r)
	var out []dreq
	for i := 0; i < daemonRepeats; i++ {
		k := rng.Intn(len(reg))
		out = append(out, dreq{Req: reg[k], Reg: k})
	}
	for i := 0; i < daemonFresh; i++ {
		op := xpowerd.OpSimulate
		if rng.Intn(2) == 0 {
			op = xpowerd.OpLint
		}
		out = append(out, dreq{Req: xpowerd.Request{Op: op, Source: freshSource(rng)}, Reg: -1})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
