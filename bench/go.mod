module sonet/bench

go 1.22

require sonet v0.0.0

replace sonet => ../
