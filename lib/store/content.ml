let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let digest_hex s = Digest.to_hex (Digest.string s)
let short s = String.sub (digest_hex s) 0 12
let key ~version fields = digest_hex (String.concat "|" (version :: fields))

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc s;
      (* close here so a failed flush raises instead of vanishing *)
      close_out oc)

let save ~dir ~ext text =
  mkdir_p dir;
  let path = Filename.concat dir (digest_hex text ^ "." ^ ext) in
  write_file path text;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
