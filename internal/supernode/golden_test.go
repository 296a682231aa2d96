package supernode

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// roundState appends what a Step leaves behind that no report shows: per
// supernode the queued requests and responses (a duplicated message
// counts twice, a dropped one not at all) and the round's leader id
// (0 = stalled), then every node's view epoch.
func (nw *Network) roundState(b *strings.Builder) {
	for x, ld := range nw.eng.Leaders {
		reqs, resps := nw.eng.Queued(x)
		fmt.Fprintf(b, "%d/%d/%d ", reqs, resps, ld+1)
	}
	fmt.Fprintf(b, "%v\n", nw.eng.ViewEpoch)
}

// goldenScenario is one pinned run: set-up applied to a fresh network,
// then a drive that steps it.
type goldenScenario struct {
	name   string
	cfg    Config
	spec   fault.Spec
	lat    sim.Latency
	drive  func(g *goldenRun)
	digest string
}

// goldenRun steps a network and writes the transcript: every Step's
// report and roundState, and at every epoch change the stats, the group
// lists and both oracle verdicts.
type goldenRun struct {
	nw    *Network
	b     strings.Builder
	epoch int
}

func (g *goldenRun) step(blocked map[sim.NodeID]bool) {
	fmt.Fprintf(&g.b, "%+v\n", g.nw.Step(blocked))
	g.nw.roundState(&g.b)
	if e := g.nw.Epoch(); e != g.epoch {
		g.epoch = e
		fmt.Fprintf(&g.b, "%+v\n%v\n%v %v\n", g.nw.StatsSnapshot(), g.nw.Groups(),
			g.nw.ConnectedNow(), g.nw.KnowledgeComponents())
	}
}

// attack steps the network for the given epochs under adv with a
// lateness given in epochs.
func (g *goldenRun) attack(adv dos.Adversary, lateEpochs, epochs int) {
	nw := g.nw
	buf := &dos.Buffer{Lateness: lateEpochs * nw.EpochRounds()}
	for i := 0; i < epochs*nw.EpochRounds(); i++ {
		buf.Publish(nw.Snapshot())
		var blocked map[sim.NodeID]bool
		if adv != nil {
			blocked = adv.SelectBlocked(nw.Round()+1, 1024, buf.View(nw.Round()+1))
		}
		g.step(blocked)
	}
}

func randomBlocking(frac float64) dos.Adversary {
	ids := allIDs(1024)
	return &dos.Random{Fraction: frac, R: rng.New(7), IDs: func() []sim.NodeID { return ids }}
}

// pickOfClass returns a CorruptState selector of the given class
// (pick % classes) whose victim bits differ per class.
func pickOfClass(class, classes uint64) uint64 {
	p := (class+3)<<40 | (class*97+11)<<8
	for p%classes != class {
		p++
	}
	return p
}

func goldenScenarios() []goldenScenario {
	isolate := func(frac float64) dos.Adversary { return &dos.GroupIsolate{Fraction: frac, R: rng.New(7)} }
	uni := sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 2}
	return []goldenScenario{
		{name: "steady", digest: "8d3e3a402f0283a4",
			drive: func(g *goldenRun) { g.attack(nil, 0, 3) }},
		{name: "isolate-0-late", digest: "b22792f0ef02b80b",
			drive: func(g *goldenRun) { g.attack(isolate(0.4), 0, 3) }},
		{name: "isolate-2-epochs-late", digest: "6642f660874772b1",
			drive: func(g *goldenRun) { g.attack(isolate(0.4), 2, 3) }},
		{name: "drop-dup-crash", digest: "0f4c60282e6c5ff5",
			spec:  fault.Spec{Seed: 11, Drop: 0.02, Dup: 0.01, Crash: 0.02, Restart: 2},
			drive: func(g *goldenRun) { g.attack(isolate(0.2), 1, 4) }},
		{name: "partition-window", digest: "cb7d5bcf72b29a0e",
			spec:  fault.Spec{Seed: 11, PartK: 2, PartFrom: 5, PartWin: 12},
			drive: func(g *goldenRun) { g.attack(randomBlocking(0.1), 0, 3) }},
		{name: "latency", digest: "4ff29bd62aed971c", lat: uni,
			drive: func(g *goldenRun) { g.attack(randomBlocking(0.1), 0, 3) }},
		{name: "latency-drop-dup", digest: "ede5e1c9a2f14ecb", lat: uni,
			spec:  fault.Spec{Seed: 11, Drop: 0.02, Dup: 0.01},
			drive: func(g *goldenRun) { g.attack(isolate(0.2), 0, 3) }},
		{name: "corrupt-repair", digest: "64995592b212e064",
			drive: func(g *goldenRun) {
				adv := randomBlocking(0.1)
				g.attack(adv, 0, 1)
				for class := uint64(0); class < 3; class++ {
					for i := 0; i < 5; i++ { // mid-sampling, messages in flight
						g.step(nil)
					}
					fmt.Fprintf(&g.b, "corrupt: %s\n", g.nw.CorruptState(pickOfClass(class, 3)))
					g.attack(adv, 0, 1)
					fmt.Fprintf(&g.b, "repair: %d\n", g.nw.RepairGroups())
					g.attack(adv, 0, 1)
				}
			}},
		{name: "k=3", digest: "52c64a9900731ea8", cfg: Config{K: 3},
			drive: func(g *goldenRun) { g.attack(isolate(0.3), 0, 3) }},
		{name: "random-leader", digest: "7b05bbd5222677d6", cfg: Config{RandomLeader: true},
			drive: func(g *goldenRun) { g.attack(randomBlocking(0.3), 0, 3) }},
	}
}

// TestRoundTranscriptGolden pins the §5 stack's absolute behaviour round
// by round. The digests were recorded at commit 3286174, at one worker,
// where each stack still had its own round pipeline with two delivery
// modes (queue appends at generation time at one worker without a gate,
// per-worker buffers merged in a second phase otherwise): they stand for
// both, and every shard count must reproduce them. At that commit the
// corrupt-repair run differed at shards=3: a node duplicated into a
// second group had its nodeGroup entry written by two workers.
func TestRoundTranscriptGolden(t *testing.T) {
	for _, sc := range goldenScenarios() {
		for _, shards := range []int{1, 3, 8} {
			cfg := sc.cfg
			cfg.Seed, cfg.N, cfg.MeasureEvery, cfg.Shards = 42, 1024, 2, shards
			g := &goldenRun{nw: New(cfg)}
			g.nw.SetFaults(sc.spec)
			g.nw.SetLatency(sc.lat)
			sc.drive(g)
			g.nw.Close()
			h := fnv.New64a()
			h.Write([]byte(g.b.String()))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != sc.digest {
				t.Errorf("%s shards=%d: transcript digest %s, recorded %s", sc.name, shards, got, sc.digest)
			}
		}
	}
}
