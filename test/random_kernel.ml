(* The random-kernel generator shared by the verifier's and the trace
   walk's properties. *)

(* Small random kernels in the v1 shape — a biased bounds check guarding a
   double indirection, sometimes with a store in the hot path — exercising
   the trace builder, speculation and the mitigation from fresh angles. *)
let gen =
  let open QCheck.Gen in
  let open Gb_kernelc.Ast in
  let* iters = int_range 40 90 in
  let* mask = oneofl [ 7; 15 ] in
  let* bound = int_range 3 6 in
  let* stride = oneofl [ 1; 4; 8 ] in
  let* with_store = bool in
  let c n = Const (Int64.of_int n) in
  let arrays =
    [
      {
        a_name = "idx";
        a_ty = I8;
        a_dims = [ 64 ];
        a_init = Bytes (String.init 64 (fun i -> Char.chr (i * 7 land 63)));
      };
      { a_name = "probe"; a_ty = I64; a_dims = [ 512 ]; a_init = Zero };
    ]
  in
  let leak =
    [
      Let ("x", Arr ("idx", [ Var "j" ]));
      Let
        ( "y",
          Arr ("probe", [ Bin (And, Bin (Mul, Var "x", c stride), c 511) ]) );
      Set ("acc", Bin (Add, Var "acc", Var "y"));
    ]
    @
    if with_store then
      [ Arr_store ("probe", [ Bin (And, Var "x", c 511) ], Var "acc") ]
    else []
  in
  let body =
    [
      Let ("acc", c 0);
      For
        ( "i",
          c 0,
          c iters,
          [
            Let ("j", Bin (And, Var "i", c mask));
            If
              ( Bin (Lt, Var "j", c bound),
                leak,
                [ Set ("acc", Bin (Add, Var "acc", c 1)) ] );
          ] );
    ]
  in
  return { arrays; body; result = Bin (And, Var "acc", c 255) }
