module dstress/bench

// The benchmark is a module of its own so that it carries its own build
// file; the "dstress/" path prefix is what lets it import
// dstress/internal/... (Go checks internal visibility by import path).

go 1.22

require dstress v0.0.0

replace dstress => ../
