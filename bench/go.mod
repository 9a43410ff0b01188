module hydro/bench

go 1.24

require hydro v0.0.0

replace hydro => ../
