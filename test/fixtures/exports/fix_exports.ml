let live x = x + 1
let dead x = x - 1
