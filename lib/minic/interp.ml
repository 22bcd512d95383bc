type value = Vint of int | Vstr of string

type violation =
  | Array_oob of { array : string; index : int }
  | Buffer_overflow of { buffer : string; wrote : int; capacity : int }
  | Machine_fault of Machine.Addr.t

type outcome =
  | Returned of int
  | Rejected of string
  | Memory_violation of violation
  | Diverged

let loop_bound = 100_000

exception Stop of outcome

let truthy n = n <> 0

let type_error_int = Stop (Rejected "type error: expected int")
let type_error_str = Stop (Rejected "type error: expected string")

(* ---- the slot compiler ---------------------------------------------

   [run] compiles the function once per call into closures.  Every
   variable is resolved to an index into a [value option array]
   ([None] = unbound) and every buffer and array name to its address
   in the frame [run] lays out, so executing a statement probes no
   table.  Each closure keeps the evaluation order, the [Rejected]
   reasons and the first-violation reporting of a direct AST walk:
   operands left to right, a failed lookup raised only when the
   statement runs. *)

type frame = {
  mem : Machine.Memory.t;
  slot_of : (string, int) Hashtbl.t;   (* every variable name of the function *)
  slots : value option array;
  buffers : (string, Machine.Addr.t * int) Hashtbl.t;   (* addr, capacity *)
  arrays : (string * (Machine.Addr.t * int)) list;   (* base, element count *)
  socket : Osmodel.Socket.t;
}

let as_int = function Vint n -> n | Vstr _ -> raise type_error_int

let as_str = function Vstr s -> s | Vint _ -> raise type_error_str

(* A name in expression position reads a buffer first: a buffer reads
   as its C string. *)
let var_expr fr v : unit -> value =
  match Hashtbl.find_opt fr.buffers v with
  | Some (addr, _) ->
      let mem = fr.mem in
      fun () -> Vstr (Machine.Memory.read_cstring mem addr)
  | None ->
      let i = Hashtbl.find fr.slot_of v and slots = fr.slots in
      let unbound = Stop (Rejected ("unbound variable " ^ v)) in
      fun () -> (match slots.(i) with Some x -> x | None -> raise unbound)

let rec int_expr fr (e : Ast.expr) : unit -> int =
  match e with
  | Ast.Int_lit n -> fun () -> n
  | Ast.Str_lit _ -> fun () -> raise type_error_int
  | Ast.Var v ->
      let x = var_expr fr v in
      fun () -> as_int (x ())
  | Ast.Bin (op, a, b) -> bin_expr fr op a b
  | Ast.Not e ->
      let x = int_expr fr e in
      fun () -> if truthy (x ()) then 0 else 1
  | Ast.Atoi e ->
      let s = str_expr fr e in
      fun () -> Pfsm.Strcodec.atoi32 (s ())
  | Ast.Strlen e ->
      let s = str_expr fr e in
      fun () -> String.length (s ())

and str_expr fr (e : Ast.expr) : unit -> string =
  match e with
  | Ast.Str_lit s -> fun () -> s
  | Ast.Var v ->
      let x = var_expr fr v in
      fun () -> as_str (x ())
  | Ast.Int_lit _ | Ast.Bin _ | Ast.Not _ | Ast.Atoi _ | Ast.Strlen _ ->
      let x = int_expr fr e in
      fun () -> ignore (x ()); raise type_error_str

and bin_expr fr op a b =
  (* One exhaustive match, each constructor with its own arm: the
     short-circuit ops never reach the strict-evaluation helpers, by
     construction rather than by an [assert false] that adversarial
     Progen ASTs could in principle reach.  The strict helpers bind
     both operands with [let ... and ...], which evaluates them left
     to right: when both fail, the left operand's reason wins. *)
  let a = int_expr fr a and b = int_expr fr b in
  let num f () =
    let x = a () and y = b () in
    Pfsm.Strcodec.wrap32 (f x y)
  in
  let cmp f () =
    let x = a () and y = b () in
    if f x y then 1 else 0
  in
  match op with
  | Ast.And -> fun () -> if truthy (a ()) && truthy (b ()) then 1 else 0
  | Ast.Or -> fun () -> if truthy (a ()) || truthy (b ()) then 1 else 0
  | Ast.Add -> num ( + )
  | Ast.Sub -> num ( - )
  | Ast.Mul -> num ( * )
  | Ast.Lt -> cmp ( < )
  | Ast.Le -> cmp ( <= )
  | Ast.Gt -> cmp ( > )
  | Ast.Ge -> cmp ( >= )
  | Ast.Eq -> cmp ( = )
  | Ast.Ne -> cmp ( <> )

let value_expr fr (e : Ast.expr) : unit -> value =
  match e with
  | Ast.Str_lit s ->
      let x = Vstr s in
      fun () -> x
  | Ast.Var v -> var_expr fr v
  | Ast.Int_lit _ | Ast.Bin _ | Ast.Not _ | Ast.Atoi _ | Ast.Strlen _ ->
      let x = int_expr fr e in
      fun () -> Vint (x ())

let machine_fault addr = Stop (Memory_violation (Machine_fault addr))

let copy_into_buffer fr buffer : string -> unit =
  match Hashtbl.find_opt fr.buffers buffer with
  | None ->
      let missing = Stop (Rejected ("no such buffer " ^ buffer)) in
      fun _ -> raise missing
  | Some (addr, capacity) ->
      let mem = fr.mem in
      fun data ->
        (match Machine.Cstring.strcpy mem ~dst:addr data with
         | () ->
             if String.length data + 1 > capacity then
               raise
                 (Stop
                    (Memory_violation
                       (Buffer_overflow
                          { buffer; wrote = String.length data + 1; capacity })))
         | exception Machine.Memory.Fault { addr; _ } -> raise (machine_fault addr))

let rec block fr stmts : unit -> unit =
  let ss = Array.of_list (List.map (stmt fr) stmts) in
  fun () -> Array.iter (fun s -> s ()) ss

and stmt fr (s : Ast.stmt) : unit -> unit =
  let mem = fr.mem and slots = fr.slots in
  match s with
  | Ast.Decl_int (v, e) | Ast.Assign (v, e) ->
      let i = Hashtbl.find fr.slot_of v and x = value_expr fr e in
      fun () -> slots.(i) <- Some (x ())
  | Ast.Decl_buf (_, _) | Ast.Decl_buf_dyn (_, _) ->
      fun () -> ()   (* allocated up front, like C stack slots *)
  | Ast.Recv_into (rc_var, buffer, off_e, max_e) -> (
      match Hashtbl.find_opt fr.buffers buffer with
      | None ->
          let missing = Stop (Rejected ("no such buffer " ^ buffer)) in
          fun () -> raise missing
      | Some (addr, capacity) ->
          let off_e = int_expr fr off_e and max_e = int_expr fr max_e in
          let rc_slot = Hashtbl.find fr.slot_of rc_var in
          fun () ->
            let off = off_e () in
            let maxlen = max_e () in
            let chunk = Osmodel.Socket.recv fr.socket maxlen in
            let rc = String.length chunk in
            match Machine.Memory.write_string mem (addr + off) chunk with
            | () ->
                slots.(rc_slot) <- Some (Vint rc);
                if rc > 0 && off + rc > capacity then
                  raise
                    (Stop
                       (Memory_violation
                          (Buffer_overflow { buffer; wrote = off + rc; capacity })))
            | exception Machine.Memory.Fault { addr; _ } -> raise (machine_fault addr))
  | Ast.Array_store (array, idx_e, v_e) -> (
      match List.assoc_opt array fr.arrays with
      | None ->
          let missing = Stop (Rejected ("no such array " ^ array)) in
          fun () -> raise missing
      | Some (base, count) ->
          let idx_e = int_expr fr idx_e and v_e = int_expr fr v_e in
          fun () ->
            let idx = idx_e () in
            let v = v_e () in
            let addr = base + (4 * idx) in
            match Machine.Memory.write_i32 mem addr v with
            | () ->
                if idx < 0 || idx >= count then
                  raise (Stop (Memory_violation (Array_oob { array; index = idx })))
            | exception Machine.Memory.Fault { addr; _ } -> raise (machine_fault addr))
  | Ast.Strcpy (buffer, e) ->
      let s = str_expr fr e and copy = copy_into_buffer fr buffer in
      fun () -> copy (s ())
  | Ast.Strncpy (buffer, e, bound_e) ->
      let s_e = str_expr fr e and bound_e = int_expr fr bound_e in
      let copy = copy_into_buffer fr buffer in
      fun () ->
        let s = s_e () in
        let bound = bound_e () in
        copy (if bound < 0 then s else String.sub s 0 (min bound (String.length s)))
  | Ast.If (cond, then_, else_) ->
      let cond = int_expr fr cond and then_ = block fr then_ and else_ = block fr else_ in
      fun () -> if truthy (cond ()) then then_ () else else_ ()
  | Ast.While (cond, body) ->
      let cond = int_expr fr cond and body = block fr body in
      fun () ->
        let iterations = ref 0 in
        while truthy (cond ()) do
          incr iterations;
          if !iterations > loop_bound then raise (Stop Diverged);
          body ()
        done
  | Ast.Do_while (body, cond) ->
      let body = block fr body and cond = int_expr fr cond in
      fun () ->
        let iterations = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          incr iterations;
          if !iterations > loop_bound then raise (Stop Diverged);
          body ();
          continue_ := truthy (cond ())
        done
  | Ast.Reject reason ->
      let stop = Stop (Rejected reason) in
      fun () -> raise stop
  | Ast.Return e ->
      let x = int_expr fr e in
      fun () -> raise (Stop (Returned (x ())))

(* Every variable name the function mentions, each given a slot. *)
let slot_names (f : Ast.func) =
  let tbl = Hashtbl.create 16 in
  let add v = if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v (Hashtbl.length tbl) in
  let rec expr (e : Ast.expr) =
    match e with
    | Ast.Var v -> add v
    | Ast.Int_lit _ | Ast.Str_lit _ -> ()
    | Ast.Bin (_, a, b) -> expr a; expr b
    | Ast.Not e | Ast.Atoi e | Ast.Strlen e -> expr e
  in
  let rec stmt (s : Ast.stmt) =
    match s with
    | Ast.Decl_int (v, e) | Ast.Assign (v, e) -> add v; expr e
    | Ast.Decl_buf (_, _) -> ()
    | Ast.Decl_buf_dyn (_, e) | Ast.Strcpy (_, e) | Ast.Return e -> expr e
    | Ast.Recv_into (rc, _, a, b) -> add rc; expr a; expr b
    | Ast.Array_store (_, a, b) | Ast.Strncpy (_, a, b) -> expr a; expr b
    | Ast.If (c, a, b) -> expr c; List.iter stmt a; List.iter stmt b
    | Ast.While (c, body) | Ast.Do_while (body, c) -> expr c; List.iter stmt body
    | Ast.Reject _ -> ()
  in
  List.iter (function Ast.Int_param p | Ast.Str_param p -> add p) f.Ast.params;
  List.iter stmt f.Ast.body;
  tbl

(* Gather every buffer declaration (C reserves stack slots at function
   entry regardless of where the declaration appears). *)
let rec buffer_decls ~size_of stmts =
  List.concat_map
    (fun (stmt : Ast.stmt) ->
       match stmt with
       | Ast.Decl_buf (name, n) -> [ (name, n) ]
       | Ast.Decl_buf_dyn (name, e) -> [ (name, max 0 (size_of e)) ]
       | Ast.If (_, a, b) -> buffer_decls ~size_of a @ buffer_decls ~size_of b
       | Ast.While (_, body) | Ast.Do_while (body, _) -> buffer_decls ~size_of body
       | Ast.Decl_int _ | Ast.Assign _ | Ast.Array_store _ | Ast.Strcpy _
       | Ast.Strncpy _ | Ast.Recv_into _ | Ast.Reject _ | Ast.Return _ -> [])
    stmts

let run ?(arrays = []) ?(socket = "") (f : Ast.func) ~args =
  let proc = Machine.Process.create () in
  Machine.Process.register_function proc "caller";
  let array_layout =
    List.map
      (fun (name, count) -> (name, (Machine.Process.alloc_global proc name (4 * count), count)))
      arrays
  in
  let stack = Machine.Process.stack proc in
  let mem = Machine.Process.mem proc in
  let slot_of = slot_names f in
  let new_slots () = Array.make (Hashtbl.length slot_of) None in
  let bind slots p arg = slots.(Hashtbl.find slot_of p) <- Some arg in
  let param_slots = new_slots () in
  (try
     List.iter2
       (fun param arg ->
          match param with
          | Ast.Int_param p | Ast.Str_param p -> bind param_slots p arg)
       f.Ast.params args
   with Invalid_argument _ -> ());
  (* A dynamic buffer's size is probed against the parameters alone,
     in a frame with no buffers yet. *)
  let probe =
    { mem; slot_of; slots = param_slots; buffers = Hashtbl.create 1; arrays = [];
      socket = Osmodel.Socket.of_string "" }
  in
  let size_of e =
    match value_expr probe e () with
    | Vint n -> n
    | Vstr _ -> 0
    | exception Stop _ -> 0
  in
  let bufs = buffer_decls ~size_of f.Ast.body in
  Machine.Stack.push_frame stack ~func:f.Ast.name
    ~ret_addr:(Machine.Process.code_addr proc "caller")
    ~locals:bufs;
  let buffers = Hashtbl.create 4 in
  List.iter
    (fun (name, n) -> Hashtbl.replace buffers name (Machine.Stack.local_addr stack name, n))
    bufs;
  let slots = new_slots () in
  (try
     List.iter2
       (fun param arg ->
          match param, arg with
          | Ast.Int_param p, Vint _ -> bind slots p arg
          | Ast.Str_param p, Vstr _ -> bind slots p arg
          | Ast.Int_param p, _ | Ast.Str_param p, _ ->
              invalid_arg ("Interp.run: argument type mismatch for " ^ p))
       f.Ast.params args
   with Invalid_argument _ ->
     invalid_arg "Interp.run: wrong number or types of arguments");
  let body =
    block
      { mem; slot_of; slots; buffers; arrays = array_layout;
        socket = Osmodel.Socket.of_string socket }
      f.Ast.body
  in
  match body () with
  | () -> Returned 0
  | exception Stop outcome -> outcome

let pp_outcome ppf = function
  | Returned n -> Format.fprintf ppf "returned %d" n
  | Rejected reason -> Format.fprintf ppf "rejected: %s" reason
  | Memory_violation (Array_oob { array; index }) ->
      Format.fprintf ppf "MEMORY VIOLATION: %s[%d] is out of bounds" array index
  | Memory_violation (Buffer_overflow { buffer; wrote; capacity }) ->
      Format.fprintf ppf "MEMORY VIOLATION: wrote %d bytes into %s[%d]" wrote buffer
        capacity
  | Memory_violation (Machine_fault addr) ->
      Format.fprintf ppf "MEMORY VIOLATION: fault at 0x%08x" addr
  | Diverged -> Format.fprintf ppf "diverged (loop bound exceeded)"
