(* Runs [f oc], then closes [oc] with a checked [close_out], so a write
   that fails only at the final flush (disk full) raises [Sys_error]
   rather than [Fun.Finally_raised] or nothing. *)
let with_out oc f =
  (try f oc with e -> close_out_noerr oc; raise e);
  close_out oc

let write_records oc records =
  List.iter
    (fun r ->
      output_string oc (Netflow.to_csv_line r);
      output_char oc '\n')
    records

let save ~path records =
  with_out (open_out path) (fun oc ->
      output_string oc Netflow.csv_header;
      output_char oc '\n';
      write_records oc records)

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let header = try input_line ic with End_of_file -> "" in
      if not (String.equal header Netflow.csv_header) then
        invalid_arg (Printf.sprintf "Trace.load: %s: bad header" path);
      let records = ref [] in
      let line_no = ref 1 in
      (try
         while true do
           let line = input_line ic in
           incr line_no;
           if String.length line > 0 then
             match Netflow.of_csv_line line with
             | r -> records := r :: !records
             | exception Invalid_argument _ ->
                 invalid_arg
                   (Printf.sprintf "Trace.load: %s: malformed record at line %d" path
                      !line_no)
         done
       with End_of_file -> ());
      List.rev !records)

let append ~path records =
  with_out (open_out_gen [ Open_append; Open_creat ] 0o644 path) (fun oc ->
      write_records oc records)

let summarize records =
  let pairs = Hashtbl.create 256 in
  let bytes = ref 0. in
  let first = ref max_int and last = ref min_int in
  List.iter
    (fun (r : Netflow.record) ->
      Hashtbl.replace pairs (Ipv4.to_int r.src, Ipv4.to_int r.dst) ();
      bytes := !bytes +. r.bytes;
      first := min !first r.first_s;
      last := max !last r.last_s)
    records;
  if records = [] then "empty trace"
  else
    Printf.sprintf "%d records, %d endpoint pairs, %.3g bytes, [%d, %d)s"
      (List.length records) (Hashtbl.length pairs) !bytes !first !last
