// The benchmark is a module of its own so it builds from this directory
// alone plus the program's source: it shares the program's import-path
// prefix (which is what lets it import internal/...) and takes the
// program from the enclosing checkout.
module github.com/dapper-sim/dapper/bench

go 1.22

require github.com/dapper-sim/dapper v0.0.0

replace github.com/dapper-sim/dapper => ../
