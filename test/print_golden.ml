(* Prints the golden digest table in the source form of golden_table.ml
   (see golden.ml): `make golden`. *)
let () = Golden.print ()
