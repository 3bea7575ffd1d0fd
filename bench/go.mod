module nvmeoaf/bench

go 1.23

require nvmeoaf v0.0.0

replace nvmeoaf => ../
