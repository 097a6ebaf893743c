let table1_seconds = 37.44
