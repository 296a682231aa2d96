package sampling_test

import (
	"fmt"
	"strings"
	"testing"

	"overlaynet/internal/core"
	"overlaynet/internal/sampling"
)

// TestDegreeAboveByteRejected: iteration 1 groups its requests in
// MaxDegree+1 counters on the stack, so every way a degree reaches a
// sampler refuses one above 256 and says so.
func TestDegreeAboveByteRejected(t *testing.T) {
	const d = 258
	for _, c := range []struct {
		name string
		err  func() error
	}{
		{"HGraphParams.Validate", sampling.HGraphParams{N: 1024, D: d, Alpha: 2, Epsilon: 1, C: 1}.Validate},
		{"core.Config.Validate", core.Config{N0: 1024, D: d}.Validate},
		{"RapidRegular", func() (err error) {
			defer func() { err = fmt.Errorf("%v", recover()) }()
			adj := make([][]int, 4)
			for v := range adj {
				adj[v] = make([]int, d)
			}
			sampling.RapidRegular(1, adj, sampling.HGraphParams{N: 4, Epsilon: 1, C: 1, WalkOverride: 2})
			return nil
		}},
	} {
		if err := c.err(); err == nil || !strings.Contains(err.Error(), "258 exceeds 256") {
			t.Errorf("%s accepted degree %d: %v", c.name, d, err)
		}
	}
}
