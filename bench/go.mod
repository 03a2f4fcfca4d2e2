module retail/bench

go 1.22

require retail v0.0.0

replace retail => ../
