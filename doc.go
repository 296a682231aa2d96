// Package overlaynet is a from-scratch Go reproduction of
//
//	"Churn- and DoS-resistant Overlay Networks Based on Network
//	Reconfiguration" — Drees, Gmyr, Scheideler; SPAA 2016.
//
// The library implements, as independently usable packages under
// internal/:
//
//   - sim: the paper's synchronous message-passing model, with
//     per-round handler protocols;
//   - hgraph, hypercube: the ℍ-graph and (k-ary) hypercube topologies;
//   - sampling: the rapid node sampling primitives (Algorithms 1 and
//     2) that combine random walks with pointer doubling to sample
//     Θ(log n) near-uniform nodes in O(log log n) rounds, plus the
//     classic random-walk baselines they improve upon;
//   - core: the churn-resistant expander network of Section 4
//     (Algorithm 3, continuous reconfiguration);
//   - supernode: the DoS-resistant hypercube of Section 5;
//   - splitmerge: the combined churn+DoS network of Section 6;
//   - committee: the round engine under both, and the one home of
//     Section 1.1's DoS blocking rule;
//   - churn, dos: the adversaries (omniscient churn, t-late DoS);
//   - apps/anon, apps/dht, apps/pubsub: the Section 7 applications;
//   - exp: one driver per reproduced experiment (see DESIGN.md).
//
// The cmd/benchtables tool regenerates every experiment table;
// EXPERIMENTS.md records paper-claim versus measured outcome for each.
package overlaynet
