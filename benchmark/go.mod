module soarpsme/benchmark

go 1.22

require soarpsme v0.0.0

replace soarpsme => ../
