module difane/bench

go 1.22

require difane v0.0.0

replace difane => ../
