package bench

import "sync"

// The experiment campaigns fan independent measurement runs across a
// bounded worker pool. This is safe because every run is hermetic: boot
// builds a fresh mem.Space / libsim.OS / interp.Machine triple, every
// random choice (workload mix, fault plan, HTM interrupt process) comes
// from an RNG seeded per run by Runner.Seed, and nothing in the repo
// touches global randomness or shared mutable state. Determinism is
// preserved by construction: each indexed job writes its result into a
// pre-sized slot and the caller assembles output in index order, so the
// rendered tables and figures are byte-identical to a serial run (a
// property locked in by TestSerialEqualsParallel).

// forEach runs jobs 0..n-1, in order when Parallelism <= 1, otherwise
// spread across min(Parallelism, n) workers. With workers, every job runs
// even if an earlier one fails (results land in caller-owned slots keyed
// by index); the error reported is the lowest-indexed one, matching what
// a serial run would have surfaced first.
func (r Runner) forEach(n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := r.Parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
