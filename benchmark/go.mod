module ricsa/benchmark

go 1.22

require ricsa v0.0.0

replace ricsa => ../
