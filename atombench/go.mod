module atomio/atombench

go 1.24

require atomio v0.0.0

replace atomio => ../
