module cofs/benchmark

go 1.24

require cofs v0.0.0

replace cofs => ../
