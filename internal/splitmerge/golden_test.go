package splitmerge

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
// supernode the round's leader id (0 = stalled) and, for each virtual
// vertex it simulates, the queued requests and responses (a duplicated
// message counts twice, a dropped one not at all), then every slot's
// view epoch.
func (nw *Network) roundState(b *strings.Builder) {
	for si, s := range nw.supers {
		ld := int32(-1)
		if si < len(nw.eng.Leaders) { // a commit may have grown the tree since the election
			ld = nw.eng.Leaders[si]
		}
		fmt.Fprintf(b, "%d:", ld+1)
		for _, w := range s.verts {
			reqs, resps := nw.eng.Queued(int(w))
			fmt.Fprintf(b, "%d/%d/%d ", w, reqs, resps)
		}
	}
	fmt.Fprintf(b, "%v\n", nw.eng.ViewEpoch)
}

// goldenScenario is one pinned run: set-up applied to a fresh network,
// then a drive that steps it.
type goldenScenario struct {
	name   string
	spec   fault.Spec
	lat    sim.Latency
	drive  func(g *goldenRun)
	digest string
}

// goldenRun steps a network and writes the transcript: every Step's
// report and roundState, and at every epoch change the stats, the
// labels, the member lists and both oracle verdicts.
type goldenRun struct {
	t     *testing.T
	nw    *Network
	b     strings.Builder
	epoch int
}

func (g *goldenRun) step(blocked map[sim.NodeID]bool) {
	fmt.Fprintf(&g.b, "%+v\n", g.nw.Step(blocked))
	g.nw.roundState(&g.b)
	if e := g.nw.Epoch(); e != g.epoch {
		g.epoch = e
		fmt.Fprintf(&g.b, "%+v\n%v\n", g.nw.StatsSnapshot(), g.nw.labels())
		for _, s := range g.nw.supers {
			fmt.Fprintf(&g.b, "%v ", s.members)
		}
		fmt.Fprintf(&g.b, "\n%v %v\n", g.nw.ConnectedNow(), g.nw.KnowledgeComponents())
	}
}

// attack steps the network for the given epochs under adv with a
// lateness given in epochs.
func (g *goldenRun) attack(adv dos.Adversary, lateEpochs, epochs int) {
	nw := g.nw
	buf := &dos.Buffer{Lateness: lateEpochs * nw.EpochRounds()}
	for ; epochs > 0; epochs-- {
		for i, er := 0, nw.EpochRounds(); i < er; i++ {
			buf.Publish(nw.Snapshot())
			var blocked map[sim.NodeID]bool
			if adv != nil {
				blocked = adv.SelectBlocked(nw.Round()+1, nw.N(), buf.View(nw.Round()+1))
			}
			g.step(blocked)
		}
	}
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
	random := func(g *goldenRun, frac float64) dos.Adversary {
		return &dos.Random{Fraction: frac, R: rng.New(7), IDs: g.nw.Members}
	}
	uni := sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 2}
	return []goldenScenario{
		{name: "steady", digest: "2a3082d469ad6a9f",
			drive: func(g *goldenRun) { g.attack(nil, 0, 3) }},
		{name: "isolate-0-late", digest: "5d8e7c6d6040f885",
			drive: func(g *goldenRun) { g.attack(isolate(0.4), 0, 3) }},
		{name: "isolate-2-epochs-late", digest: "c6a2d80e7b3782ec",
			drive: func(g *goldenRun) { g.attack(isolate(0.4), 2, 3) }},
		{name: "drop-dup-crash", digest: "80c08f455e61398d",
			spec:  fault.Spec{Seed: 11, Drop: 0.02, Dup: 0.01, Crash: 0.02, Restart: 2},
			drive: func(g *goldenRun) { g.attack(isolate(0.2), 1, 4) }},
		{name: "partition-window", digest: "1e3cd39067d205c7",
			spec:  fault.Spec{Seed: 11, PartK: 2, PartFrom: 5, PartWin: 12},
			drive: func(g *goldenRun) { g.attack(random(g, 0.1), 0, 3) }},
		{name: "latency", digest: "ec87e757292574fd", lat: uni,
			drive: func(g *goldenRun) { g.attack(random(g, 0.1), 0, 3) }},
		{name: "latency-drop-dup", digest: "99b2b48a5be988b1", lat: uni,
			spec:  fault.Spec{Seed: 11, Drop: 0.02, Dup: 0.01},
			drive: func(g *goldenRun) { g.attack(isolate(0.2), 0, 3) }},
		{name: "corrupt-repair", digest: "348f3206c675482f",
			drive: func(g *goldenRun) {
				adv := random(g, 0.1)
				g.attack(adv, 0, 1)
				for class := uint64(0); class < 2; class++ {
					for i := 0; i < 5; i++ { // mid-sampling, messages in flight
						g.step(nil)
					}
					fmt.Fprintf(&g.b, "corrupt: %s\n", g.nw.CorruptState(pickOfClass(class, 2)))
					for i := 0; i < 4; i++ { // the damaged tree routes the messages in flight
						g.step(nil)
					}
					if class == 0 {
						fmt.Fprintf(&g.b, "repair: %d\n", g.nw.RepairMembership())
					} else { // mid-sampling too: the new supernodes simulate nothing until the next epoch
						fmt.Fprintf(&g.b, "repair: %d\n", g.nw.RepairBalance())
					}
					g.attack(adv, 0, 2)
				}
				// A mutation left alone across a commit, repaired after it.
				fmt.Fprintf(&g.b, "corrupt: %s\n", g.nw.CorruptState(pickOfClass(1, 2)+2<<8))
				g.attack(adv, 0, 1)
				fmt.Fprintf(&g.b, "repair: %d\n", g.nw.RepairBalance())
				g.attack(adv, 0, 1)
			}},
		{name: "churn-split-merge", digest: "80a2409910f928b3",
			drive: func(g *goldenRun) {
				adv, r := random(g, 0.1), rng.New(9)
				for e := 0; e < 6; e++ { // an eighth replaced per epoch; three epochs up, three down
					grow, shrink := g.nw.N()/2, 0
					if e >= 3 {
						grow, shrink = 0, g.nw.N()/3
					}
					churn(g.nw, r, grow, shrink)
					g.attack(adv, 0, 1)
				}
				if st := g.nw.StatsSnapshot(); st.Splits == 0 || st.Merges == 0 {
					g.t.Fatalf("churn scenario saw %d splits and %d merges, want both", st.Splits, st.Merges)
				}
			}},
	}
}

// TestRoundTranscriptGolden pins the §6 stack's absolute behaviour round
// by round. The digests were recorded at commit 3286174, at one worker,
// where each stack still had its own round pipeline with two delivery
// modes (queue appends at generation time at one worker without a gate,
// per-worker buffers merged in a second phase otherwise): they stand for
// both, and every shard count must reproduce them.
func TestRoundTranscriptGolden(t *testing.T) {
	for _, sc := range goldenScenarios() {
		for _, shards := range []int{1, 3, 8} {
			g := &goldenRun{t: t, nw: New(Config{Seed: 42, N0: 512, MeasureEvery: 2, Shards: shards})}
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
