module digfl/bench

go 1.22

require digfl v0.0.0

replace digfl => ../
