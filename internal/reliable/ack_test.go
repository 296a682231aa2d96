package reliable

import (
	"slices"
	"testing"

	"overlaynet/internal/sim"
)

// burstNode sends n tokens to peer in its first round and counts the
// failures reported back.
type burstNode struct {
	peer   sim.NodeID
	n      int
	failed int
}

func (b *burstNode) OnRound(ctx *sim.Ctx, _ []sim.Message) bool {
	for i := 0; ctx.Round() == 1 && i < b.n; i++ {
		ctx.Send(b.peer, token{N: i}, 32)
	}
	return true
}

func (b *burstNode) OnDeliveryFailure(sim.NodeID) { b.failed++ }

// ackScript is an unwrapped peer that answers envelopes with hand-made
// acks: respond(batch, seqs) returns the seqs to acknowledge, in wire
// order, for the batch-th non-empty arrival. It logs every batch, so the
// test sees the sender's transmit order; lateAt is a round well past the
// sender's schedule in which it acks everything it ever saw once more.
type ackScript struct {
	respond func(batch int, seqs []uint64) []uint64
	batches [][]uint64
	lateAt  int
}

func (a *ackScript) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	var seqs []uint64
	for i := range inbox {
		seqs = append(seqs, inbox[i].Payload.(*Envelope).Seq)
	}
	var acks []uint64
	if len(seqs) > 0 {
		acks = a.respond(len(a.batches), seqs)
		a.batches = append(a.batches, seqs)
	}
	if ctx.Round() == a.lateAt {
		acks = a.batches[0]
	}
	for _, s := range acks {
		ctx.SendAck(1, Ack{Seq: s}, AckBits)
	}
	return true
}

// ackHist sums the per-round ack-delay histograms.
type ackHist struct{ hist [8]int }

func (*ackHist) RoundStart(int, int)         {}
func (*ackHist) NodeSpawned(int, sim.NodeID) {}
func (h *ackHist) RoundEnd(s sim.RoundStats) {
	for b, c := range s.Reliability.AckDelay {
		h.hist[b] += int(c)
	}
}

// TestAckManyOutstanding drives one endpoint with 600 envelopes
// outstanding through out-of-order, duplicate, unknown and late acks. A
// third of the envelopes is acked after the original, a third after the
// first retransmission, a third never: the retransmit batches must be
// exactly the still-unacked seqs in send order, each acked envelope must
// be observed once (duplicates and acks after the budget ran out are
// no-ops), and the rest must fail. The expectations are those of the
// order-preserving removal the binary search replaced (the test passes
// unchanged on it).
func TestAckManyOutstanding(t *testing.T) {
	const n = 600
	cfg := Config{On: true, Backoff: 2, Budget: 2}
	d0 := AttemptDelay(cfg, 5, 1, 1, 2, 0)
	pick := func(seqs []uint64, rem uint64) (out []uint64) {
		for _, s := range seqs {
			if s%3 == rem {
				out = append(out, s)
			}
		}
		return out
	}
	peer := &ackScript{lateAt: 200, respond: func(batch int, seqs []uint64) []uint64 {
		switch batch {
		case 0: // the originals: ack seq ≡ 0, newest first, some of them twice
			acks := pick(seqs, 0)
			slices.Reverse(acks)
			return append(acks, 3, 300, 600, n+7)
		case 1: // first retransmission: ack seq ≡ 1 in a stride order, re-ack some of the first third
			third := pick(seqs, 1)
			acks := make([]uint64, 0, len(third)+3)
			for i := range third {
				acks = append(acks, third[i*77%len(third)])
			}
			return append(acks, 3, 9, third[0])
		}
		return nil
	}}
	inner := &burstNode{peer: 2, n: n}
	net := sim.NewNetwork(sim.Config{Seed: 5})
	tr := &ackHist{}
	net.SetTracer(tr)
	net.SpawnHandler(1, Wrap(5, cfg, 1, inner))
	net.SpawnHandler(2, peer)
	net.Run(peer.lateAt + 3)
	stats := net.ReliabilityStats()
	net.Shutdown()

	all := make([]uint64, n)
	for i := range all {
		all[i] = uint64(i + 1)
	}
	want := [][]uint64{all, append(pick(all, 1), pick(all, 2)...), pick(all, 2)}
	slices.Sort(want[1])
	if len(peer.batches) != len(want) {
		t.Fatalf("peer saw %d batches, want %d (original + 2 retransmissions)", len(peer.batches), len(want))
	}
	for b := range want {
		if !slices.Equal(peer.batches[b], want[b]) {
			t.Errorf("batch %d: %d seqs, want the %d still-unacked ones in send order", b, len(peer.batches[b]), len(want[b]))
		}
	}
	if stats.Retransmits != 2*n/3+n/3 || stats.Failures != n/3 || inner.failed != n/3 {
		t.Errorf("retransmits=%d failures=%d reported=%d, want %d/%d/%d",
			stats.Retransmits, stats.Failures, inner.failed, n, n/3, n/3)
	}
	// First third: acked 2 rounds after the original. Second third: the
	// retransmission fires at 1+d0, its ack lands two rounds later.
	var hist [8]int
	for _, delay := range []int{2, d0 + 2} {
		b := 0
		for v := delay; v > 1 && b < len(hist)-1; v >>= 1 {
			b++
		}
		hist[b] += n / 3
	}
	if tr.hist != hist {
		t.Errorf("ack-delay histogram %v, want %v (d0=%d)", tr.hist, hist, d0)
	}
}
