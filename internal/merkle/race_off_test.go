//go:build !race

package merkle

const raceEnabled = false
