//go:build race

package ot

func init() { raceEnabled = true }
