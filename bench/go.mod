module specqp/bench

go 1.24

require specqp v0.0.0

replace specqp => ../
