module github.com/twoldag/twoldag/benchmark

go 1.24

require github.com/twoldag/twoldag v0.0.0

replace github.com/twoldag/twoldag => ../
