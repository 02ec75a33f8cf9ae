module hpcap/bench

go 1.22

require hpcap v0.0.0

replace hpcap => ../
