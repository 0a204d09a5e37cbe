module femtoverse/benchmark

go 1.22

require femtoverse v0.0.0

replace femtoverse => ../
