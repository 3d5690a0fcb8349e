(* The unit passed whole to a functor whose parameter asks for [equal]
   and [hash] only: that uses neither [live] nor [dead]. *)
module Table = Hashtbl.Make (Fix_exports)
