module ebrrq/benchmark

go 1.22

require ebrrq v0.0.0

replace ebrrq => ../
