module encshare/bench

go 1.21

require encshare v0.0.0

replace encshare => ../
