//go:build !race

package boot_test

const raceEnabled = false
