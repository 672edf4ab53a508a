package engine

import (
	"fmt"
	"testing"

	"anondyn/internal/dynnet"
)

// BenchmarkRoundThroughput measures raw engine performance: n processes
// echoing over a static cycle for 100 rounds per iteration.
func BenchmarkRoundThroughput(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const rounds = 100
			schedule := dynnet.NewStatic(dynnet.Cycle(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				procs := make([]Coroutine, n)
				for j := range procs {
					procs[j] = CoroutineFunc(func(tr *Transport) (any, error) {
						for r := 0; r < rounds; r++ {
							if _, err := tr.SendAndReceive(r); err != nil {
								return nil, err
							}
						}
						return nil, nil
					})
				}
				res, err := Run(Config{Schedule: schedule, MaxRounds: rounds + 1}, procs)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != rounds {
					b.Fatalf("rounds=%d", res.Rounds)
				}
			}
			b.ReportMetric(float64(rounds)*float64(n), "msgs/op")
		})
	}
}

// BenchmarkDeliverDense stresses the router's delivery path on a
// complete graph, where each round routes Θ(n²) messages; the per-round
// buffers are reused, so steady-state rounds should allocate almost
// nothing inside deliver.
func BenchmarkDeliverDense(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const rounds = 50
			sched := dynnet.NewStatic(dynnet.Complete(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				procs := make([]Coroutine, n)
				for j := range procs {
					procs[j] = CoroutineFunc(func(tr *Transport) (any, error) {
						got := 0
						for r := 0; r < rounds; r++ {
							in, err := tr.SendAndReceive(r)
							if err != nil {
								return nil, err
							}
							got += len(in)
						}
						return got, nil
					})
				}
				res, err := Run(Config{Schedule: sched, MaxRounds: rounds + 1}, procs)
				if err != nil {
					b.Fatal(err)
				}
				if want := rounds * (n - 1); res.Outputs[0].(int) != want {
					b.Fatalf("deliveries=%d, want %d", res.Outputs[0], want)
				}
			}
			b.ReportMetric(float64(rounds)*float64(n)*float64(n-1), "msgs/op")
		})
	}
}
