// Command overlaysim runs individual overlay scenarios from the paper
// interactively.
//
// Usage:
//
//	overlaysim sample   [-n 1024] [-d 8] [-seed 1]           rapid node sampling on an H-graph
//	overlaysim cube     [-dim 8] [-seed 1]                   rapid node sampling on a hypercube
//	overlaysim churn    [-n 256] [-epochs 5] [-frac 0.25]    expander under replacement churn
//	overlaysim dos      [-n 1024] [-frac 0.4] [-late] [-epochs 3]
//	overlaysim churndos [-n 1024] [-frac 0.4] [-churn 0.125] [-epochs 4]
//	overlaysim anon     [-n 512] [-frac 0.4] [-requests 1000]
//	overlaysim dht      [-n 1024] [-blocked 8]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"overlaynet/internal/apps/anon"
	"overlaynet/internal/apps/dht"
	"overlaynet/internal/churn"
	"overlaynet/internal/core"
	"overlaynet/internal/dos"
	"overlaynet/internal/hgraph"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/sampling"
	"overlaynet/internal/sim"
	"overlaynet/internal/splitmerge"
	"overlaynet/internal/supernode"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "sample":
		runSample(args)
	case "cube":
		runCube(args)
	case "churn":
		runChurn(args)
	case "dos":
		runDoS(args)
	case "churndos":
		runChurnDoS(args)
	case "anon":
		runAnon(args)
	case "dht":
		runDHT(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: overlaysim {sample|cube|churn|dos|churndos|anon|dht} [flags]")
	os.Exit(2)
}

// fail reports a bad flag combination and exits non-zero. User input
// must never reach the library panics — those are reserved for internal
// invariant violations.
func fail(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "overlaysim %s: %v\n", cmd, err)
	os.Exit(1)
}

// checkFrac validates a probability-like flag.
func checkFrac(cmd, name string, v float64) {
	if v < 0 || v > 1 {
		fail(cmd, fmt.Errorf("%s = %g outside [0, 1]", name, v))
	}
}

func runSample(args []string) {
	fs := flag.NewFlagSet("sample", flag.ExitOnError)
	n := fs.Int("n", 1024, "nodes")
	d := fs.Int("d", 8, "H-graph degree")
	seed := fs.Uint64("seed", 1, "seed")
	fs.Parse(args)
	if *d < 4 || *d%2 != 0 {
		fail("sample", fmt.Errorf("H-graph degree must be even and >= 4, got %d", *d))
	}
	p := sampling.HGraphParams{N: *n, D: *d, Alpha: 2, Epsilon: 0.5, C: 1}
	if err := p.Validate(); err != nil {
		fail("sample", err)
	}
	h := hgraph.Random(rng.New(*seed), *n, *d)
	res := sampling.RapidHGraph(*seed, h, p)
	tv, env := metrics.PooledTV(res.Samples, *n)
	fmt.Printf("rapid node sampling on a random H-graph (n=%d, d=%d)\n", *n, *d)
	fmt.Printf("  rounds            %d  (walk length %d would need %d rounds)\n",
		res.Rounds, p.WalkLength(), p.WalkTarget()+1)
	fmt.Printf("  samples/node      %d\n", p.Samples())
	fmt.Printf("  TV vs uniform     %.4f  (3x envelope %.4f)\n", tv, env)
	fmt.Printf("  max bits/node-rnd %d\n", res.MaxNodeBits)
	fmt.Printf("  failures          %d\n", res.Failures)
}

func runCube(args []string) {
	fs := flag.NewFlagSet("cube", flag.ExitOnError)
	dim := fs.Int("dim", 8, "hypercube dimension (power of two)")
	seed := fs.Uint64("seed", 1, "seed")
	fs.Parse(args)
	if *dim < 2 || *dim&(*dim-1) != 0 {
		fail("cube", fmt.Errorf("dimension must be a power of two >= 2, got %d", *dim))
	}
	p := sampling.DefaultHypercubeParams(*dim)
	if err := p.Validate(); err != nil {
		fail("cube", err)
	}
	res := sampling.RapidHypercube(*seed, p)
	n := 1 << *dim
	tv, env := metrics.PooledTV(res.Samples, n)
	fmt.Printf("rapid node sampling on the %d-cube (n=%d)\n", *dim, n)
	fmt.Printf("  rounds        %d  (classic walk needs %d)\n", res.Rounds, *dim+1)
	fmt.Printf("  TV vs uniform %.4f  (3x envelope %.4f)\n", tv, env)
	fmt.Printf("  failures      %d\n", res.Failures)
}

func runChurn(args []string) {
	fs := flag.NewFlagSet("churn", flag.ExitOnError)
	n := fs.Int("n", 256, "initial nodes")
	epochs := fs.Int("epochs", 5, "reconfiguration epochs")
	frac := fs.Float64("frac", 0.25, "replacement fraction per epoch")
	seed := fs.Uint64("seed", 1, "seed")
	fs.Parse(args)
	cfg := core.Config{Seed: *seed, N0: *n, D: 8, Alpha: 2, Epsilon: 0.5}
	if err := cfg.Validate(); err != nil {
		fail("churn", err)
	}
	if *frac < 0 || *frac >= 1 {
		fail("churn", fmt.Errorf("replacement fraction %g outside [0, 1)", *frac))
	}
	nw := core.NewNetwork(cfg)
	defer nw.Shutdown()
	adv := &churn.Replace{Fraction: *frac, R: rng.New(*seed + 1)}
	t := metrics.NewTable(fmt.Sprintf("expander under %.0f%% replacement churn per epoch", *frac*100),
		"epoch", "n", "rounds", "connected", "valid", "failures", "max chosen", "max empty seg")
	for _, rep := range churn.Run(nw, adv, *epochs) {
		t.AddRowf(rep.Epoch, rep.NNew, rep.Rounds, rep.Connected, rep.Valid,
			rep.Failures, rep.MaxChosen, rep.MaxEmptySegment)
	}
	fmt.Println(t.String())
}

func runDoS(args []string) {
	fs := flag.NewFlagSet("dos", flag.ExitOnError)
	n := fs.Int("n", 1024, "nodes")
	frac := fs.Float64("frac", 0.4, "blocked fraction")
	late := fs.Bool("late", true, "adversary is 2t-late (false = 0-late)")
	epochs := fs.Int("epochs", 3, "reorganization epochs")
	seed := fs.Uint64("seed", 1, "seed")
	shards := fs.Int("shards", 0, "intra-round committee-engine workers (0 = $OVERLAYNET_SHARDS or 1; results identical for any value)")
	fs.Parse(args)
	cfg := supernode.Config{Seed: *seed, N: *n, Shards: *shards}
	if err := cfg.Validate(); err != nil {
		fail("dos", err)
	}
	checkFrac("dos", "frac", *frac)
	nw := supernode.New(cfg)
	lateness := 0
	if *late {
		lateness = 2 * nw.EpochRounds()
	}
	adv := &dos.GroupIsolate{Fraction: *frac, R: rng.New(*seed + 1)}
	buf := &dos.Buffer{Lateness: lateness}
	nw.Run(adv, buf, *epochs*nw.EpochRounds())
	st := nw.StatsSnapshot()
	fmt.Printf("hypercube network under group-isolate DoS (n=%d, %d supernodes, dim %d)\n",
		*n, nw.NSuper(), nw.Dim())
	fmt.Printf("  blocked fraction     %.2f\n", *frac)
	fmt.Printf("  adversary lateness   %d rounds (epoch = %d rounds)\n", lateness, nw.EpochRounds())
	fmt.Printf("  rounds run           %d\n", st.Rounds)
	fmt.Printf("  disconnected rounds  %d\n", st.Disconnected)
	fmt.Printf("  group stalls         %d\n", st.Stalls)
	if st.Disconnected == 0 {
		fmt.Println("  -> connectivity maintained (Theorem 6)")
	} else {
		fmt.Println("  -> network was cut (expected for a 0-late adversary)")
	}
}

func runChurnDoS(args []string) {
	fs := flag.NewFlagSet("churndos", flag.ExitOnError)
	n := fs.Int("n", 1024, "initial nodes")
	frac := fs.Float64("frac", 0.4, "blocked fraction")
	churnFrac := fs.Float64("churn", 0.125, "churn fraction per epoch")
	epochs := fs.Int("epochs", 4, "epochs")
	seed := fs.Uint64("seed", 1, "seed")
	shards := fs.Int("shards", 0, "intra-round committee-engine workers (0 = $OVERLAYNET_SHARDS or 1; results identical for any value)")
	fs.Parse(args)
	cfg := splitmerge.Config{Seed: *seed, N0: *n, Shards: *shards}
	if err := cfg.Validate(); err != nil {
		fail("churndos", err)
	}
	checkFrac("churndos", "frac", *frac)
	if *churnFrac < 0 || *churnFrac > 0.5 {
		fail("churndos", fmt.Errorf("churn fraction %g outside [0, 0.5]", *churnFrac))
	}
	nw := splitmerge.New(cfg)
	adv := &dos.GroupIsolate{Fraction: *frac, R: rng.New(*seed + 1)}
	buf := &dos.Buffer{Lateness: 2 * nw.EpochRounds()}
	r := rng.New(*seed + 2)
	for e := 0; e < *epochs; e++ {
		nw.ReplaceMembers(r, int(*churnFrac*float64(nw.N())))
		nw.Run(adv, buf, nw.EpochRounds())
	}
	st := nw.StatsSnapshot()
	min, max := nw.DimRange()
	fmt.Printf("split/merge network under churn %.1f%% + DoS %.0f%% (n0=%d)\n",
		*churnFrac*100, *frac*100, *n)
	fmt.Printf("  epochs %d, rounds/epoch %d\n", *epochs, nw.EpochRounds())
	fmt.Printf("  disconnected rounds %d, stalls %d\n", st.Disconnected, st.Stalls)
	fmt.Printf("  splits %d, merges %d (forced %d)\n", st.Splits, st.Merges, st.ForcedMerges)
	fmt.Printf("  dimensions [%d, %d] (spread <= 2: %v), Equation 1 holds: %v\n",
		min, max, max-min <= 2, nw.Eq1Holds())
	fmt.Printf("  final n %d, supernodes %d\n", nw.N(), nw.NumSupers())
}

func runAnon(args []string) {
	fs := flag.NewFlagSet("anon", flag.ExitOnError)
	n := fs.Int("n", 512, "servers")
	frac := fs.Float64("frac", 0.4, "blocked fraction")
	requests := fs.Int("requests", 1000, "requests")
	seed := fs.Uint64("seed", 1, "seed")
	shards := fs.Int("shards", 0, "intra-round committee-engine workers (0 = $OVERLAYNET_SHARDS or 1; results identical for any value)")
	fs.Parse(args)
	cfg := supernode.Config{Seed: *seed, N: *n, MeasureEvery: -1, Shards: *shards}
	if err := cfg.Validate(); err != nil {
		fail("anon", err)
	}
	checkFrac("anon", "frac", *frac)
	net := supernode.New(cfg)
	sy := anon.NewSystem(net, *seed+1)
	ids := make([]sim.NodeID, *n)
	for i := range ids {
		ids[i] = sim.NodeID(i + 1)
	}
	adv := &dos.Random{Fraction: *frac, R: rng.New(*seed + 2), IDs: func() []sim.NodeID { return ids }}
	delivered, replied := 0, 0
	counts := make([]int, *n)
	for i := 0; i < *requests; i++ {
		if i%64 == 0 {
			sy.ResampleDestinations()
		}
		seq := make([]map[sim.NodeID]bool, 4)
		for h := range seq {
			if *frac > 0 {
				seq[h] = adv.SelectBlocked(i+h, *n, nil)
			}
		}
		entry := sim.NodeID(0)
		for v := 1; v <= *n; v++ {
			if seq[0] == nil || !seq[0][sim.NodeID(v)] {
				entry = sim.NodeID(v)
				break
			}
		}
		res := sy.Request(entry, seq)
		if res.Delivered {
			delivered++
			counts[int(res.Exit)-1]++
		}
		if res.ReplyDelivered {
			replied++
		}
	}
	fmt.Printf("anonymous relay service (n=%d servers, blocked %.0f%%)\n", *n, *frac*100)
	fmt.Printf("  requests   %d\n", *requests)
	fmt.Printf("  delivered  %.1f%%, replies %.1f%%\n",
		100*float64(delivered)/float64(*requests), 100*float64(replied)/float64(*requests))
	fmt.Printf("  exit entropy %.2f of %.2f bits\n", metrics.Entropy(counts), math.Log2(float64(*n)))
}

func runDHT(args []string) {
	fs := flag.NewFlagSet("dht", flag.ExitOnError)
	n := fs.Int("n", 1024, "servers")
	blockedN := fs.Int("blocked", 8, "blocked servers")
	seed := fs.Uint64("seed", 1, "seed")
	fs.Parse(args)
	if *n < 64 {
		fail("dht", fmt.Errorf("n = %d too small (need at least 64)", *n))
	}
	if *blockedN < 0 || *blockedN >= *n {
		fail("dht", fmt.Errorf("blocked = %d outside [0, n)", *blockedN))
	}
	d := dht.New(dht.Config{Seed: *seed, N: *n})
	r := rng.New(*seed + 1)
	blocked := map[sim.NodeID]bool{}
	for len(blocked) < *blockedN {
		blocked[sim.NodeID(r.Intn(*n)+1)] = true
	}
	hop := func(int) map[sim.NodeID]bool { return blocked }
	var ops []dht.BatchOp
	for i := 0; i < *n; i++ {
		entry := sim.NodeID(i + 1)
		if blocked[entry] {
			continue
		}
		ops = append(ops, dht.BatchOp{Entry: entry, Key: fmt.Sprintf("key%d", i), Value: "v"})
	}
	st := d.ServeBatch(ops, hop)
	fmt.Printf("robust DHT (n=%d servers, %d-ary %d-cube of %d groups, %d blocked)\n",
		*n, d.K(), d.D(), d.NumGroups(), *blockedN)
	fmt.Printf("  batch of %d writes: served %d, failed %d\n", len(ops), st.Served, st.Failed)
	fmt.Printf("  max rounds %d, max group congestion %d\n", st.MaxRounds, st.MaxCongestion)
}
