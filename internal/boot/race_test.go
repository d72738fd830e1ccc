//go:build race

package boot_test

// raceEnabled reports a -race build, ten times slower: the plant matrix
// then plants one fault per kind.
const raceEnabled = true
