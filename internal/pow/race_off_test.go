//go:build !race

package pow

const raceEnabled = false
